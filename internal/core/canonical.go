package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
)

// CanonicalJSON marshals v into canonical bytes: object keys sorted,
// no insignificant whitespace, and every number rendered by Go's
// shortest-round-trip formatter regardless of how it was spelled in an
// input file. Two semantically equal values always canonicalize to the
// same bytes, so the output is fit for content addressing (see HashJSON
// and Scenario.Hash).
//
// The form is produced in one pass over json.Marshal's compact output
// (see canonicalizer), and is the bytes a decode of that output into a
// generic tree (numbers kept as literals) and a sorted re-encode would
// give.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("core: canonical json: %w", err)
	}
	c := canonicalizerPool.Get().(*canonicalizer)
	defer c.release()
	return c.appendValue(make([]byte, 0, len(raw)), raw), nil
}

// HashJSON returns the SHA-256 of v's canonical JSON, hex-encoded — the
// content address the suite engine keys cells and memo entries by.
func HashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("core: canonical json: %w", err)
	}
	c := canonicalizerPool.Get().(*canonicalizer)
	defer c.release()
	c.buf = c.appendValue(c.buf[:0], raw)
	sum := sha256.Sum256(c.buf)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalizer rewrites one value of compact JSON, as json.Marshal
// writes it, into canonical form. Each object's members are sorted by
// their decoded keys, and a repeated key keeps its last value, as a
// decode into a map does. Number literals, true, false and null are
// copied verbatim, and so is a string of printable ASCII without a
// backslash. Any other string (an escape, non-ASCII bytes, or invalid
// UTF-8 passed through by a json.RawMessage) is decoded and re-encoded
// by encoding/json, so an invalid byte becomes U+FFFD.
//
// Canonicalizers are pooled; members is the stack of the objects being
// rewritten, and buf is HashJSON's output buffer.
type canonicalizer struct {
	members []member
	buf     []byte
}

// member is one object member: its key decoded (for ordering), its key
// as written, and the span of its value in the input.
type member struct {
	key, enc   []byte
	start, end int
}

var canonicalizerPool = sync.Pool{New: func() any { return new(canonicalizer) }}

// maxPooledBuf bounds the output buffer a pooled canonicalizer keeps.
const maxPooledBuf = 64 << 10

func (c *canonicalizer) release() {
	clear(c.members[:cap(c.members)]) // drop references into the input
	c.members = c.members[:0]
	if cap(c.buf) > maxPooledBuf {
		c.buf = nil
	}
	canonicalizerPool.Put(c)
}

// appendValue appends the canonical form of the JSON value src, which
// is exactly one compact value, to dst.
func (c *canonicalizer) appendValue(dst, src []byte) []byte {
	switch src[0] {
	case '{':
		return c.appendObject(dst, src)
	case '[':
		dst = append(dst, '[')
		for i := 1; src[i] != ']'; {
			end := skipValue(src, i)
			dst = c.appendValue(dst, src[i:end])
			if src[end] == ',' {
				dst = append(dst, ',')
				end++
			}
			i = end
		}
		return append(dst, ']')
	case '"':
		return appendString(dst, src)
	default:
		return append(dst, src...)
	}
}

func (c *canonicalizer) appendObject(dst, src []byte) []byte {
	base := len(c.members)
	for i := 1; src[i] != '}'; {
		keyEnd := skipString(src, i)
		end := skipValue(src, keyEnd+1)
		m := member{key: src[i+1 : keyEnd-1], enc: src[i:keyEnd], start: keyEnd + 1, end: end}
		if !plainString(m.enc) {
			var k string
			json.Unmarshal(m.enc, &k) //nolint:errcheck // a string json.Marshal wrote decodes
			m.key = []byte(k)
			m.enc, _ = json.Marshal(k)
		}
		c.members = append(c.members, m)
		if src[end] == ',' {
			end++
		}
		i = end
	}
	ms := c.members[base:]
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	// Of a run of equal keys the stable sort leaves the last one written
	// last: keep only it.
	top := base
	for k := range ms {
		if k+1 < len(ms) && bytes.Equal(ms[k].key, ms[k+1].key) {
			continue
		}
		c.members[top] = ms[k]
		top++
	}
	c.members = c.members[:top]

	dst = append(dst, '{')
	for k := base; k < top; k++ {
		m := c.members[k] // by value: nested objects may grow the stack
		if k > base {
			dst = append(dst, ',')
		}
		dst = append(dst, m.enc...)
		dst = append(dst, ':')
		dst = c.appendValue(dst, src[m.start:m.end])
	}
	c.members = c.members[:base]
	return append(dst, '}')
}

// appendString appends the canonical form of the JSON string literal
// src: src itself when it is plain, else json.Marshal's encoding of the
// string it decodes to.
func appendString(dst, src []byte) []byte {
	if plainString(src) {
		return append(dst, src...)
	}
	var s string
	json.Unmarshal(src, &s) //nolint:errcheck // a string json.Marshal wrote decodes
	enc, _ := json.Marshal(s)
	return append(dst, enc...)
}

// plainString reports whether the string literal src (quotes included)
// re-encodes to itself: printable ASCII without a backslash. (<, > and &
// never appear raw: json.Marshal escapes them, in a json.RawMessage too.)
func plainString(src []byte) bool {
	for _, b := range src[1 : len(src)-1] {
		if b < 0x20 || b >= 0x7f || b == '\\' {
			return false
		}
	}
	return true
}

// skipString returns the index just past the string literal that
// starts at src[i].
func skipString(src []byte, i int) int {
	for i++; src[i] != '"'; i++ {
		if src[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// skipValue returns the index just past the compact JSON value that
// starts at src[i].
func skipValue(src []byte, i int) int {
	switch src[i] {
	case '"':
		return skipString(src, i)
	case '{', '[':
		depth := 0
		for {
			switch src[i] {
			case '"':
				i = skipString(src, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1
				}
			}
			i++
		}
	default:
		for i < len(src) && src[i] != ',' && src[i] != '}' && src[i] != ']' {
			i++
		}
		return i
	}
}

// Hash returns the scenario's content address: the SHA-256 of its
// canonical JSON after defaults are materialized. Two scenarios that run
// identically hash identically, independent of field spelling, file
// formatting, or the presence of unset-but-defaulted fields; the
// OnProgress callback is excluded (it is never serialized).
func (s Scenario) Hash() (string, error) {
	return HashJSON(s.WithDefaults())
}
