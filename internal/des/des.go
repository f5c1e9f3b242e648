// Package des is a small discrete-event simulation kernel: an event
// calendar plus queueing-station building blocks (processor sharing,
// FCFS, delay) sufficient to simulate the paper's testbed — closed-loop
// clients over a two-tier server pipeline — and the single-queue
// experiments of Section 2.
//
// The calendar is a binary heap of *Event ordered by (time, scheduling
// sequence), a total order, so events fire in the same sequence however
// the heap arranges them. Cancel is lazy: a canceled event stays in the
// heap until it reaches the top and is dropped unfired. Reschedule moves
// an event the caller already holds (pending, canceled or fired) to a
// new time in place; it takes a fresh sequence number exactly as
// Schedule does, so it fires in the order a Cancel plus a Schedule would
// give, but allocates nothing. The stations use it to keep one
// completion event each, so their completions allocate nothing in
// steady state. Pending counts the events in the heap: live ones plus
// canceled ones not yet dropped, with a rescheduled event counted once.
//
// The processor-sharing station keeps virtual time instead of each job's
// remaining work: one clock v, the service a job present since the busy
// period began has received, advances by dt*speed/n, and each job waits
// in a min-heap under its finish tag v(arrival)+demand, ties broken
// first come first. An arrival pushes, a completion pops every job whose
// tag v has reached, and a speed change only changes the rate of v, so
// one event costs O(log n) in the number of jobs present. v restarts at
// zero whenever the station empties.
package des

import (
	"context"
	"fmt"
	"math"
)

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; events fire in (time, scheduling order) sequence.
type Event struct {
	time     float64
	seq      int64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// Time returns the scheduled fire time.
func (e *Event) Time() float64 { return e.time }

// eventHeap is a binary min-heap ordered by (time, seq). Each event
// records its index so Reschedule can restore the order in place.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	old.down(0, n)
	e := old[n]
	old[n] = nil
	e.index = -1
	*h = old[:n]
	return e
}

// fix restores the heap order after the event at index i changed its
// (time, seq) key.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// Sim is the simulation executive. The zero value is not usable;
// construct with NewSim.
type Sim struct {
	now    float64
	events eventHeap
	seq    int64
	fired  int64
}

// NewSim returns a simulation starting at time 0.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// EventsFired returns the number of events executed so far.
func (s *Sim) EventsFired() int64 { return s.fired }

// Schedule registers fn to run after delay seconds. A negative delay
// panics: it indicates a simulation logic bug.
func (s *Sim) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: negative or NaN delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute time t >= Now().
func (s *Sim) ScheduleAt(t float64, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	e := &Event{time: t, seq: s.seq, fn: fn}
	s.events.push(e)
	return e
}

// Reschedule moves e to fire fn after delay seconds and returns e. It
// takes a fresh scheduling sequence number exactly as Schedule does, so
// the firing order is the one a Cancel of e followed by a Schedule
// would give, without allocating a new event. e may be pending,
// canceled or already fired; a nil e falls through to Schedule, and an
// event that is not in this calendar (a zero Event, say) is added to it.
func (s *Sim) Reschedule(e *Event, delay float64, fn func()) *Event {
	if e == nil {
		return s.Schedule(delay, fn)
	}
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: negative or NaN delay %v", delay))
	}
	s.seq++
	e.time, e.seq, e.fn, e.canceled = s.now+delay, s.seq, fn, false
	if i := e.index; i >= 0 && i < len(s.events) && s.events[i] == e {
		s.events.fix(i)
	} else {
		s.events.push(e)
	}
	return e
}

// RunUntil executes events in order until the calendar is empty or the
// next event is after t; the clock is left at min(t, last event time).
func (s *Sim) RunUntil(t float64) {
	// context.Background() is never canceled, so the error is impossible.
	_ = s.RunUntilCtx(context.Background(), t)
}

// ctxCheckEvery is how many events RunUntilCtx executes between context
// checks: frequent enough that cancellation lands within microseconds of
// simulated work, rare enough that the check cost is invisible next to
// event dispatch.
const ctxCheckEvery = 1024

// RunUntilCtx is RunUntil with cooperative cancellation: every
// ctxCheckEvery events it polls ctx and, when the context is done,
// abandons the remaining calendar and returns ctx.Err(). The simulation
// is left mid-run and should be discarded.
func (s *Sim) RunUntilCtx(ctx context.Context, t float64) error {
	sinceCheck := 0
	for len(s.events) > 0 {
		next := s.events[0]
		if next.time > t {
			break
		}
		s.events.pop()
		if next.canceled {
			continue
		}
		s.now = next.time
		s.fired++
		next.fn()
		if sinceCheck++; sinceCheck >= ctxCheckEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	if s.now < t {
		s.now = t
	}
	return nil
}

// Drain executes every remaining event; the clock ends at the time of the
// last event fired (unlike RunUntil, which advances the clock to the
// horizon even when idle). Drain terminates only if the event population
// eventually stops replenishing itself: an unconditionally
// self-rescheduling callback (e.g. a monitor without a horizon — see
// monitor.WatchUntil) keeps the calendar non-empty forever, and Drain
// never returns.
func (s *Sim) Drain() {
	for s.Step() {
	}
}

// Step executes exactly one pending (non-canceled) event, returning false
// if the calendar is empty.
func (s *Sim) Step() bool {
	for len(s.events) > 0 {
		next := s.events.pop()
		if next.canceled {
			continue
		}
		s.now = next.time
		s.fired++
		next.fn()
		return true
	}
	return false
}

// Pending returns the number of events in the calendar, including
// canceled events not yet dropped from it. An event moved by Reschedule
// counts once.
func (s *Sim) Pending() int { return len(s.events) }
