package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark's tracing. It never reaches into the program: raw events
// come from the pipeline's public hooks (Suite.Inject, Suite.OnProgress,
// Scenario.OnProgress) and are turned into spans after the pass, using the
// rows the pass returned. Spans stay in memory and are written out when
// the run ends.

// hookEvent is one hook call, stamped when it happened.
type hookEvent struct {
	at    time.Duration // since the pass started
	gid   uint64        // goroutine that made the call
	kind  string        // evCellStart, evCellEnd, evInject or evProgress
	cell  string        // cell hash (cell and inject events)
	stage string
	pop   int
}

const (
	evCellStart = "cell-start"
	evCellEnd   = "cell-end"
	evInject    = "inject"
	evProgress  = "progress"
)

// hookLog collects the raw events of one traced pass.
type hookLog struct {
	t0     time.Time
	mu     sync.Mutex
	events []hookEvent
}

func newHookLog() *hookLog { return &hookLog{t0: time.Now()} }

func (l *hookLog) add(ev hookEvent) {
	ev.at = time.Since(l.t0)
	ev.gid = goid()
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// goid returns the calling goroutine's id. ProgressEvent carries no cell
// identity, and two cells of a suite run concurrently with the same
// population list, so the tracer ties a scenario progress call to its
// cell by the goroutine the suite engine runs that cell on: the engine
// calls OnProgress(start), Inject and the solver progress callbacks from
// the cell's worker goroutine.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// span is one timed interval of a traced pass, in seconds since the pass
// started. Parent is the index of the enclosing span, -1 for the pass.
type span struct {
	Name   string             `json:"name"`
	Parent int                `json:"parent"`
	Cell   string             `json:"cell,omitempty"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	parent *span
}

func (s *span) dur() float64 { return s.End - s.Start }

// spanSet is the spans of one traced pass.
type spanSet struct {
	spans []*span
}

func (ss *spanSet) add(name string, parent *span, cell string, start, end time.Duration) *span {
	s := &span{Name: name, Parent: -1, Cell: cell, Start: start.Seconds(), End: end.Seconds(), parent: parent}
	ss.spans = append(ss.spans, s)
	return s
}

// busy sums the durations of the spans with the given name.
func (ss *spanSet) busy(name string) float64 {
	t := 0.0
	for _, s := range ss.spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// count counts the spans with the given name and, when attr is not
// empty, a nonzero value of that attribute.
func (ss *spanSet) count(name, attr string) int {
	n := 0
	for _, s := range ss.spans {
		if s.Name == name && (attr == "" || s.Attrs[attr] != 0) {
			n++
		}
	}
	return n
}

// selfTime sums, over the spans with the given name, each span's
// duration minus the part of it that its child spans cover.
func (ss *spanSet) selfTime(name string) float64 {
	children := map[*span][]*span{}
	for _, s := range ss.spans {
		if s.parent != nil {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	t := 0.0
	for _, s := range ss.spans {
		if s.Name == name {
			t += s.dur() - covered(s, children[s])
		}
	}
	return t
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, kids []*span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans writes every traced pass's spans as JSON Lines, one span per
// line tagged with its pass number.
func writeSpans(path string, passes []*spanSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	index := map[*span]int{}
	for p, ss := range passes {
		for i, s := range ss.spans {
			index[s] = i
			if s.parent != nil {
				s.Parent = index[s.parent]
			}
			line, err := json.Marshal(struct {
				Pass int `json:"pass"`
				*span
			}{p, s})
			if err != nil {
				f.Close()
				return err
			}
			w.Write(append(line, '\n')) //nolint:errcheck // the error surfaces from Flush
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
