package des

import (
	"container/heap"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired out of order: %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v, want 10", s.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := NewSim()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	e.Cancel()
	s.RunUntil(5)
	if fired {
		t.Error("canceled event fired")
	}
	var nilEvent *Event
	nilEvent.Cancel() // must not panic
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := NewSim()
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(5, func() { fired++ })
	s.RunUntil(3)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
	s.RunUntil(6)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 after extending horizon", fired)
	}
}

func TestStep(t *testing.T) {
	s := NewSim()
	count := 0
	s.Schedule(1, func() { count++ })
	s.Schedule(2, func() { count++ })
	if !s.Step() || count != 1 {
		t.Error("first Step should fire exactly one event")
	}
	if !s.Step() || count != 2 {
		t.Error("second Step should fire the second event")
	}
	if s.Step() {
		t.Error("Step on empty calendar should return false")
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	NewSim().Schedule(-1, func() {})
}

func TestScheduleChained(t *testing.T) {
	// Events scheduled by events run in the same RunUntil.
	s := NewSim()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			s.Schedule(0.5, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.RunUntil(100)
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
	if s.EventsFired() != 10 {
		t.Errorf("EventsFired = %d, want 10", s.EventsFired())
	}
}

func TestFCFSSingleJob(t *testing.T) {
	s := NewSim()
	var doneAt float64
	st := NewFCFSStation(s, "q", func(j *Job) { doneAt = s.Now() })
	st.Arrive(&Job{ID: 1, Demand: 2.5})
	s.RunUntil(10)
	if doneAt != 2.5 {
		t.Errorf("completion at %v, want 2.5", doneAt)
	}
	if st.Completions() != 1 || st.QueueLen() != 0 {
		t.Errorf("completions = %d, queue = %d", st.Completions(), st.QueueLen())
	}
	if math.Abs(st.BusyTime()-2.5) > 1e-12 {
		t.Errorf("busy time = %v, want 2.5", st.BusyTime())
	}
}

func TestFCFSOrderPreserved(t *testing.T) {
	s := NewSim()
	var done []int64
	st := NewFCFSStation(s, "q", func(j *Job) { done = append(done, j.ID) })
	for i := int64(1); i <= 5; i++ {
		st.Arrive(&Job{ID: i, Demand: 1})
	}
	s.RunUntil(100)
	if !sort.SliceIsSorted(done, func(i, j int) bool { return done[i] < done[j] }) {
		t.Errorf("FCFS completions out of order: %v", done)
	}
	// Serial service: total busy time = 5.
	if math.Abs(st.BusyTime()-5) > 1e-12 {
		t.Errorf("busy time = %v, want 5", st.BusyTime())
	}
}

func TestPSSingleJobMatchesFCFS(t *testing.T) {
	s := NewSim()
	var doneAt float64
	st := NewPSStation(s, "ps", func(j *Job) { doneAt = s.Now() })
	st.Arrive(&Job{ID: 1, Demand: 3})
	s.RunUntil(10)
	if math.Abs(doneAt-3) > 1e-9 {
		t.Errorf("completion at %v, want 3", doneAt)
	}
}

func TestPSEqualSharing(t *testing.T) {
	// Two identical jobs arriving together each get half the server:
	// both complete at 2*demand.
	s := NewSim()
	var times []float64
	st := NewPSStation(s, "ps", func(j *Job) { times = append(times, s.Now()) })
	st.Arrive(&Job{ID: 1, Demand: 1})
	st.Arrive(&Job{ID: 2, Demand: 1})
	s.RunUntil(10)
	if len(times) != 2 {
		t.Fatalf("completions = %d, want 2", len(times))
	}
	for _, at := range times {
		if math.Abs(at-2) > 1e-9 {
			t.Errorf("completion at %v, want 2", at)
		}
	}
}

func TestPSShortJobOvertakes(t *testing.T) {
	// PS lets a short job finish before an earlier long job.
	s := NewSim()
	var first int64
	st := NewPSStation(s, "ps", func(j *Job) {
		if first == 0 {
			first = j.ID
		}
	})
	st.Arrive(&Job{ID: 1, Demand: 10})
	s.Schedule(1, func() { st.Arrive(&Job{ID: 2, Demand: 0.5}) })
	s.RunUntil(50)
	if first != 2 {
		t.Errorf("first completion = job %d, want job 2 (short)", first)
	}
	if st.Completions() != 2 {
		t.Errorf("completions = %d, want 2", st.Completions())
	}
}

func TestPSCompletionTimesKnown(t *testing.T) {
	// Job A (demand 2) at t=0; job B (demand 2) at t=1.
	// 0..1: A alone, A remaining 1. 1..3: shared, each +1 work => A done
	// at t=3. B then alone with 1 left at t=3: done at t=4.
	s := NewSim()
	done := map[int64]float64{}
	st := NewPSStation(s, "ps", func(j *Job) { done[j.ID] = s.Now() })
	st.Arrive(&Job{ID: 1, Demand: 2})
	s.Schedule(1, func() { st.Arrive(&Job{ID: 2, Demand: 2}) })
	s.RunUntil(50)
	if math.Abs(done[1]-3) > 1e-9 {
		t.Errorf("job1 done at %v, want 3", done[1])
	}
	if math.Abs(done[2]-4) > 1e-9 {
		t.Errorf("job2 done at %v, want 4", done[2])
	}
	if math.Abs(st.BusyTime()-4) > 1e-9 {
		t.Errorf("busy time = %v, want 4", st.BusyTime())
	}
}

func TestPSSpeedChange(t *testing.T) {
	// One job, demand 2, speed halved at t=1: finishes 1 + 1/0.5 = 3.
	s := NewSim()
	var doneAt float64
	st := NewPSStation(s, "ps", func(j *Job) { doneAt = s.Now() })
	st.Arrive(&Job{ID: 1, Demand: 2})
	s.Schedule(1, func() { st.SetSpeed(0.5) })
	s.RunUntil(50)
	if math.Abs(doneAt-3) > 1e-9 {
		t.Errorf("completion at %v, want 3", doneAt)
	}
	if st.Speed() != 0.5 {
		t.Errorf("speed = %v, want 0.5", st.Speed())
	}
}

func TestPSZeroSpeedPausesService(t *testing.T) {
	s := NewSim()
	var doneAt float64
	st := NewPSStation(s, "ps", func(j *Job) { doneAt = s.Now() })
	st.Arrive(&Job{ID: 1, Demand: 1})
	s.Schedule(0.5, func() { st.SetSpeed(0) })
	s.Schedule(2.5, func() { st.SetSpeed(1) })
	s.RunUntil(50)
	// 0.5 done before pause, 0.5 after resume: completes at 3.
	if math.Abs(doneAt-3) > 1e-9 {
		t.Errorf("completion at %v, want 3", doneAt)
	}
}

func TestPSInvalidDemandPanics(t *testing.T) {
	s := NewSim()
	st := NewPSStation(s, "ps", func(*Job) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive demand")
		}
	}()
	st.Arrive(&Job{ID: 1, Demand: 0})
}

func TestMM1SimulationMatchesTheory(t *testing.T) {
	// M/M/1 with rho = 0.7: mean response = 1/(mu-lambda), util = rho.
	lambda, mu := 0.7, 1.0
	s := NewSim()
	src := xrand.New(99)
	var resp stats.Accumulator
	st := NewFCFSStation(s, "q", func(j *Job) {
		resp.Add(s.Now() - j.Ctx.(float64))
	})
	var arrive func()
	arrive = func() {
		st.Arrive(&Job{ID: 1, Demand: src.Exp(1 / mu), Ctx: s.Now()})
		s.Schedule(src.Exp(1/lambda), arrive)
	}
	s.Schedule(src.Exp(1/lambda), arrive)
	s.RunUntil(300000)
	wantR := 1 / (mu - lambda)
	if math.Abs(resp.Mean()-wantR) > 0.1*wantR {
		t.Errorf("M/M/1 mean response = %v, want ~%v", resp.Mean(), wantR)
	}
	util := st.BusyTime() / s.Now()
	if math.Abs(util-0.7) > 0.02 {
		t.Errorf("M/M/1 utilization = %v, want ~0.7", util)
	}
}

func TestMM1PSMatchesTheory(t *testing.T) {
	// M/M/1-PS has the same mean response time as M/M/1-FCFS.
	lambda, mu := 0.6, 1.0
	s := NewSim()
	src := xrand.New(123)
	var resp stats.Accumulator
	var st *PSStation
	st = NewPSStation(s, "ps", func(j *Job) {
		resp.Add(s.Now() - j.Ctx.(float64))
	})
	var arrive func()
	arrive = func() {
		st.Arrive(&Job{Demand: src.Exp(1 / mu), Ctx: s.Now()})
		s.Schedule(src.Exp(1/lambda), arrive)
	}
	s.Schedule(src.Exp(1/lambda), arrive)
	s.RunUntil(200000)
	wantR := 1 / (mu - lambda)
	if math.Abs(resp.Mean()-wantR) > 0.1*wantR {
		t.Errorf("M/M/1-PS mean response = %v, want ~%v", resp.Mean(), wantR)
	}
}

// Property: PS work conservation — with unit speed, total busy time equals
// total completed demand when the station empties.
func TestPropPSWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		s := NewSim()
		total := 0.0
		st := NewPSStation(s, "ps", func(*Job) {})
		n := 1 + src.Intn(40)
		for i := 0; i < n; i++ {
			d := 0.01 + src.Float64()
			total += d
			at := src.Float64() * 5
			j := &Job{ID: int64(i), Demand: d}
			s.Schedule(at, func() { st.Arrive(j) })
		}
		s.RunUntil(1e6)
		return st.QueueLen() == 0 &&
			st.Completions() == int64(n) &&
			math.Abs(st.BusyTime()-total) < 1e-6*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: FCFS response time of k-th of k simultaneous unit jobs is k.
func TestPropFCFSSerialization(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		k := 1 + src.Intn(20)
		s := NewSim()
		var last float64
		st := NewFCFSStation(s, "q", func(j *Job) { last = s.Now() })
		for i := 0; i < k; i++ {
			st.Arrive(&Job{ID: int64(i), Demand: 1})
		}
		s.RunUntil(1e5)
		return math.Abs(last-float64(k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refSim is the container/heap calendar with lazy cancel that Sim's
// typed heap replaced. It is the reference the differential test holds
// Sim to: Reschedule must fire exactly as its Cancel plus Schedule does.
type refSim struct {
	now    float64
	events refHeap
	seq    int64
}

type refEvent struct {
	time     float64
	seq      int64
	fn       func()
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (s *refSim) schedule(delay float64, fn func()) *refEvent {
	s.seq++
	e := &refEvent{time: s.now + delay, seq: s.seq, fn: fn}
	heap.Push(&s.events, e)
	return e
}

func (s *refSim) runUntil(t float64) {
	for len(s.events) > 0 {
		next := s.events[0]
		if next.time > t {
			break
		}
		heap.Pop(&s.events)
		if next.canceled {
			continue
		}
		s.now = next.time
		next.fn()
	}
	if s.now < t {
		s.now = t
	}
}

func (s *refSim) step() bool {
	for len(s.events) > 0 {
		next := heap.Pop(&s.events).(*refEvent)
		if next.canceled {
			continue
		}
		s.now = next.time
		next.fn()
		return true
	}
	return false
}

// calendar addresses events by slot, so one random script can drive
// both calendars. Scheduling into an occupied slot forgets the old
// event's handle; the event itself stays pending.
type calendar interface {
	schedule(slot int, delay float64)
	cancel(slot int)
	reschedule(slot int, delay float64)
	runUntil(t float64)
	step() bool
	now() float64
}

type simCalendar struct {
	s    *Sim
	ev   []*Event
	fire func(slot int)
}

func (c *simCalendar) fn(slot int) func()               { return func() { c.fire(slot) } }
func (c *simCalendar) schedule(slot int, delay float64) { c.ev[slot] = c.s.Schedule(delay, c.fn(slot)) }
func (c *simCalendar) cancel(slot int)                  { c.ev[slot].Cancel() }
func (c *simCalendar) reschedule(slot int, delay float64) {
	c.ev[slot] = c.s.Reschedule(c.ev[slot], delay, c.fn(slot))
}
func (c *simCalendar) runUntil(t float64) { c.s.RunUntil(t) }
func (c *simCalendar) step() bool         { return c.s.Step() }
func (c *simCalendar) now() float64       { return c.s.Now() }

type refCalendar struct {
	s    refSim
	ev   []*refEvent
	fire func(slot int)
}

func (c *refCalendar) schedule(slot int, delay float64) {
	c.ev[slot] = c.s.schedule(delay, func() { c.fire(slot) })
}
func (c *refCalendar) cancel(slot int) {
	if e := c.ev[slot]; e != nil {
		e.canceled = true
	}
}
func (c *refCalendar) reschedule(slot int, delay float64) {
	c.cancel(slot)
	c.schedule(slot, delay)
}
func (c *refCalendar) runUntil(t float64) { c.s.runUntil(t) }
func (c *refCalendar) step() bool         { return c.s.step() }
func (c *refCalendar) now() float64       { return c.s.now }

// firing is one entry of a calendar's log: the slot of a fired event
// (or -1 after a RunUntil or Step returns) and the clock at that moment.
type firing struct {
	slot int
	at   float64
}

// runCalendarScript drives a calendar with a seeded random mix of
// Schedule, Cancel, Reschedule, RunUntil and Step, with delays on a
// half-second grid so that many events tie in time. Fired callbacks
// also schedule, cancel and reschedule. It returns the firing log.
func runCalendarScript(seed int64, newCal func(fire func(slot int)) calendar) []firing {
	const slots = 8
	src := xrand.New(seed)
	var cal calendar
	var log []firing
	delay := func() float64 { return 0.5 * float64(src.Intn(4)) }
	op := func() {
		slot := src.Intn(slots)
		switch src.Intn(3) {
		case 0:
			cal.schedule(slot, delay())
		case 1:
			cal.cancel(slot)
		case 2:
			cal.reschedule(slot, delay())
		}
	}
	cal = newCal(func(slot int) {
		log = append(log, firing{slot, cal.now()})
		if src.Intn(3) == 0 {
			op()
		}
	})
	for i := 0; i < 300; i++ {
		switch src.Intn(5) {
		case 0, 1, 2:
			op()
		case 3:
			cal.runUntil(cal.now() + delay())
			log = append(log, firing{-1, cal.now()})
		case 4:
			cal.step()
			log = append(log, firing{-1, cal.now()})
		}
	}
	// Each firing adds at most 2/9 of an event on average, so the
	// calendar drains; the bound only guards a broken calendar.
	for i := 0; i < 100000 && cal.step(); i++ {
	}
	return append(log, firing{-1, cal.now()})
}

func TestRescheduleMatchesReferenceCalendar(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := runCalendarScript(seed, func(fire func(int)) calendar {
			return &simCalendar{s: NewSim(), ev: make([]*Event, 8), fire: fire}
		})
		want := runCalendarScript(seed, func(fire func(int)) calendar {
			return &refCalendar{ev: make([]*refEvent, 8), fire: fire}
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestRescheduleMovesOneEvent(t *testing.T) {
	s := NewSim()
	var order []string
	a := s.Schedule(1, func() { order = append(order, "a") })
	s.Schedule(2, func() { order = append(order, "b") })
	if got := s.Reschedule(a, 3, func() { order = append(order, "a'") }); got != a {
		t.Fatal("Reschedule returned a different event")
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2: a rescheduled event counts once", s.Pending())
	}
	a.Cancel()
	s.Reschedule(a, 2, func() { order = append(order, "a''") }) // revives it
	s.RunUntil(10)
	if got := strings.Join(order, " "); got != "b a''" {
		t.Errorf("fired %q, want %q", got, "b a''")
	}
	// A fired event goes back on the calendar; a nil one is scheduled.
	s.Reschedule(a, 1, func() { order = append(order, "again") })
	s.Reschedule(nil, 2, func() { order = append(order, "new") })
	s.RunUntil(20)
	if got := strings.Join(order, " "); got != "b a'' again new" {
		t.Errorf("fired %q, want %q", got, "b a'' again new")
	}
	// A zero Event claims heap index 0 without being in the heap; it is
	// added, not mistaken for the event at the top.
	s.Schedule(1, func() { order = append(order, "top") })
	s.Reschedule(&Event{}, 2, func() { order = append(order, "zero") })
	s.RunUntil(30)
	if got := strings.Join(order, " "); got != "b a'' again new top zero" {
		t.Errorf("fired %q, want %q", got, "b a'' again new top zero")
	}
}

// TestStationCompletionsAllocateNothing: once the calendar, the job
// lists and the scratch slices have grown, a cycle of arrivals, a speed
// change and completions at a PS and a FCFS station allocates nothing.
func TestStationCompletionsAllocateNothing(t *testing.T) {
	s := NewSim()
	ps := NewPSStation(s, "ps", func(*Job) {})
	fcfs := NewFCFSStation(s, "q", func(*Job) {})
	psJobs := []Job{{ID: 1, Demand: 1}, {ID: 2, Demand: 2}, {ID: 3, Demand: 0.5}}
	fcfsJobs := []Job{{ID: 1, Demand: 1}, {ID: 2, Demand: 2}, {ID: 3, Demand: 0.5}}
	cycle := func() {
		for i := range psJobs {
			ps.Arrive(&psJobs[i])
			fcfs.Arrive(&fcfsJobs[i])
		}
		ps.SetSpeed(0.5)
		s.RunUntil(s.Now() + 4)
		ps.SetSpeed(1)
		s.RunUntil(s.Now() + 4)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("arrive/complete cycle allocates %v times, want 0", n)
	}
	if ps.Completions() != 306 || fcfs.Completions() != 306 {
		t.Errorf("completions = %d/%d, want 306 each (102 cycles of 3 jobs)", ps.Completions(), fcfs.Completions())
	}
}

// TestFCFSOrderUnderBacklog keeps a FCFS queue busy while it grows, so
// its served prefix is slid down into place more than once, and checks
// that jobs still leave in arrival order with serial service.
func TestFCFSOrderUnderBacklog(t *testing.T) {
	s := NewSim()
	var done []int64
	st := NewFCFSStation(s, "q", func(j *Job) { done = append(done, j.ID) })
	for i := int64(0); i < 200; i++ {
		j := &Job{ID: i, Demand: 1}
		s.Schedule(0.6*float64(i), func() { st.Arrive(j) })
	}
	s.RunUntil(1000)
	if len(done) != 200 {
		t.Fatalf("completions = %d, want 200", len(done))
	}
	for i, id := range done {
		if id != int64(i) {
			t.Fatalf("completion %d is job %d: FCFS order broken", i, id)
		}
	}
	if s.Now() != 1000 || math.Abs(st.BusyTime()-200) > 1e-9 {
		t.Errorf("busy time = %v, want 200", st.BusyTime())
	}
}
