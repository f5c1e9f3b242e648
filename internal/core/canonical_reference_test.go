package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// canonicalJSONReference is the former CanonicalJSON, kept as the
// reference the one-pass canonicalizer is tested against: marshal, decode
// into a generic tree with numbers kept as literals, and re-encode it
// with sorted keys.
func canonicalJSONReference(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("core: canonical json: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // preserve full int64 precision through the round trip
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("core: canonical json: %w", err)
	}
	var buf bytes.Buffer
	if err := writeCanonicalReference(&buf, tree); err != nil {
		return nil, fmt.Errorf("core: canonical json: %w", err)
	}
	return buf.Bytes(), nil
}

// writeCanonicalReference renders a decoded JSON tree with sorted object
// keys and compact separators. Numbers arrive as json.Number literals
// produced by Go's encoder, which formats any given float64
// deterministically.
func writeCanonicalReference(buf *bytes.Buffer, v any) error {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonicalReference(buf, t[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
		return nil
	case []any:
		buf.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonicalReference(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
		return nil
	case json.Number:
		buf.WriteString(t.String())
		return nil
	default:
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		buf.Write(b)
		return nil
	}
}
