package des

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refPSStation is the processor-sharing station PSStation replaced: it
// keeps every job's remaining work and walks all of them on every
// arrival, completion and speed change. It is the reference the
// differential tests hold the virtual-time station to.
type refPSStation struct {
	sim        *Sim
	jobs       []refPSJob
	done       []*Job
	speed      float64
	lastUpdate float64
	pending    *Event
	completeFn func()
	onComplete func(*Job)

	busyTime    float64
	completions int64
}

type refPSJob struct {
	job       *Job
	remaining float64
}

func newRefPSStation(sim *Sim, onComplete func(*Job)) *refPSStation {
	st := &refPSStation{sim: sim, speed: 1, onComplete: onComplete}
	st.completeFn = st.complete
	return st
}

func (st *refPSStation) advance() {
	now := st.sim.Now()
	dt := now - st.lastUpdate
	st.lastUpdate = now
	if dt <= 0 || len(st.jobs) == 0 {
		return
	}
	st.busyTime += dt
	each := dt * st.speed / float64(len(st.jobs))
	for i := range st.jobs {
		st.jobs[i].remaining -= each
	}
}

func (st *refPSStation) reschedule() {
	if len(st.jobs) == 0 || st.speed <= 0 {
		st.pending.Cancel()
		return
	}
	minRem := math.Inf(1)
	for _, j := range st.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	delay := minRem * float64(len(st.jobs)) / st.speed
	st.pending = st.sim.Reschedule(st.pending, delay, st.completeFn)
}

func (st *refPSStation) Arrive(j *Job) {
	st.advance()
	j.Arrived = st.sim.Now()
	st.jobs = append(st.jobs, refPSJob{job: j, remaining: j.Demand})
	st.reschedule()
}

func (st *refPSStation) complete() {
	st.advance()
	done := st.done[:0]
	kept := st.jobs[:0]
	for _, j := range st.jobs {
		if j.remaining <= completionEpsilon {
			done = append(done, j.job)
		} else {
			kept = append(kept, j)
		}
	}
	st.jobs = kept
	if len(done) == 0 {
		minIdx := 0
		for i, j := range st.jobs {
			if j.remaining < st.jobs[minIdx].remaining {
				minIdx = i
			}
		}
		done = append(done, st.jobs[minIdx].job)
		st.jobs = append(st.jobs[:minIdx], st.jobs[minIdx+1:]...)
	}
	st.reschedule()
	for i, j := range done {
		done[i] = nil
		st.completions++
		st.onComplete(j)
	}
	st.done = done[:0]
}

func (st *refPSStation) SetSpeed(f float64) {
	st.advance()
	st.speed = f
	st.reschedule()
}

func (st *refPSStation) QueueLen() int { return len(st.jobs) }

func (st *refPSStation) BusyTime() float64 {
	st.advance()
	return st.busyTime
}

func (st *refPSStation) Completions() int64 { return st.completions }

// psStation is what the differential tests drive: either station.
type psStation interface {
	Station
	SetSpeed(f float64)
}

// psOp is one step of an open-loop station script: at time at, either
// count jobs arrive together, all with the given demand, or (count 0)
// the station's speed is set.
type psOp struct {
	at     float64
	count  int
	demand float64
	speed  float64
}

// psCompletion is one job leaving a station.
type psCompletion struct {
	id int64
	at float64
}

// psRun is what one station did with a script.
type psRun struct {
	order       []psCompletion
	busyStart   []float64 // per job: when its busy period began
	tiedWith    []int64   // per job: the first job of its arrival op
	busyTime    float64
	completions int64
	queued      int
}

// runPSScript plays a script against a fresh station and drains it. The
// script ends at a positive speed, so every job completes.
func runPSScript(script []psOp, newStation func(*Sim, func(*Job)) psStation) psRun {
	s := NewSim()
	var run psRun
	st := newStation(s, func(j *Job) {
		run.order = append(run.order, psCompletion{id: j.ID, at: s.Now()})
	})
	var busyStart float64
	for _, op := range script {
		if op.count == 0 {
			s.ScheduleAt(op.at, func() { st.SetSpeed(op.speed) })
			continue
		}
		first := int64(len(run.busyStart))
		for i := 0; i < op.count; i++ {
			run.busyStart = append(run.busyStart, 0)
			run.tiedWith = append(run.tiedWith, first)
		}
		s.ScheduleAt(op.at, func() {
			if st.QueueLen() == 0 {
				busyStart = s.Now()
			}
			for i := 0; i < op.count; i++ {
				id := first + int64(i)
				run.busyStart[id] = busyStart
				st.Arrive(&Job{ID: id, Demand: op.demand})
			}
		})
	}
	s.Drain()
	run.busyTime = st.BusyTime()
	run.completions = st.Completions()
	run.queued = st.QueueLen()
	return run
}

// comparePSRuns plays a script against PSStation and refPSStation and
// reports the first way they disagree. Each job's completion time must
// match within 1e-9 of the time since its busy period began (plus two
// ulps of the clock, the rounding of the completion instant itself):
// within a busy period both stations carry error relative to its
// length, and a station that let error build up across busy periods
// would miss this bound. Jobs must leave in the same order, except
// those that leave at exactly the same instant at either station; and
// jobs whose finish tags tie exactly, because they arrived together with
// equal demands, must leave first come first.
func comparePSRuns(script []psOp) error {
	got := runPSScript(script, func(s *Sim, fn func(*Job)) psStation { return NewPSStation(s, "ps", fn) })
	want := runPSScript(script, func(s *Sim, fn func(*Job)) psStation { return newRefPSStation(s, fn) })
	n := len(want.busyStart)
	if got.queued != 0 || want.queued != 0 {
		return fmt.Errorf("jobs left queued: %d, reference %d", got.queued, want.queued)
	}
	if got.completions != want.completions || len(got.order) != n || len(want.order) != n {
		return fmt.Errorf("completions %d (%d recorded), reference %d (%d recorded), %d jobs",
			got.completions, len(got.order), want.completions, len(want.order), n)
	}
	if d := math.Abs(got.busyTime - want.busyTime); d > 1e-9*want.busyTime {
		return fmt.Errorf("busy time %v, reference %v", got.busyTime, want.busyTime)
	}
	at := make([]float64, n)
	for i := range at {
		at[i] = math.NaN()
	}
	for _, c := range got.order {
		at[c.id] = c.at
	}
	for name, run := range map[string]psRun{"station": got, "reference": want} {
		pos := make([]int, n)
		for i, c := range run.order {
			pos[c.id] = i
		}
		for id := int64(1); id < int64(n); id++ {
			if run.tiedWith[id] != id && pos[id] < pos[id-1] {
				return fmt.Errorf("%s: tied jobs %d and %d leave out of arrival order", name, id-1, id)
			}
		}
	}
	for _, c := range want.order {
		tol := 1e-9*(c.at-want.busyStart[c.id]) + 2*ulp(c.at)
		if d := math.Abs(at[c.id] - c.at); !(d <= tol) {
			return fmt.Errorf("job %d completes at %v, reference %v (off by %g, tolerance %g)",
				c.id, at[c.id], c.at, d, tol)
		}
	}
	// Walk the reference order in groups of equal completion instants:
	// every job of a group must leave no later than every job of the
	// next group.
	prevMax := math.Inf(-1)
	for i := 0; i < n; {
		k := i
		lo, hi := math.Inf(1), math.Inf(-1)
		for ; k < n && want.order[k].at == want.order[i].at; k++ {
			lo, hi = math.Min(lo, at[want.order[k].id]), math.Max(hi, at[want.order[k].id])
		}
		if lo < prevMax {
			return fmt.Errorf("completion order differs from the reference at job %d (reference position %d)",
				want.order[i].id, i)
		}
		prevMax, i = hi, k
	}
	return nil
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// seededPSScript builds a script in three phases: busy traffic with H2
// demands, simultaneous equal-demand arrivals and spells at speed 0.25
// or 0; one busy period of more than 1e5 s held open by a job with a
// demand of 1e5; then short bursts of tiny jobs at speed 0.25, each
// burst its own busy period.
func seededPSScript(seed int64) []psOp {
	src := xrand.New(seed)
	h2, _ := xrand.NewHyper2(0.3, 4)
	var script []psOp
	arrive := func(t float64, scale float64) {
		count := 1
		if src.Intn(4) == 0 {
			count = 2 + src.Intn(6) // equal demands, together
		}
		script = append(script, psOp{at: t, count: count, demand: scale * h2.Sample(src)})
		if src.Intn(8) == 0 { // a slow or stopped spell, then back to 1
			t += src.Exp(scale)
			script = append(script, psOp{at: t, speed: []float64{0.25, 0}[src.Intn(2)]},
				psOp{at: t + src.Exp(scale), speed: 1})
		}
	}

	t := 0.0
	for t < 200 {
		t += src.Exp(0.4)
		arrive(t, 1)
	}
	t += 50
	script = append(script, psOp{at: t, count: 1, demand: 1e5})
	for end := t + 1.2e5; t < end; {
		t += src.Exp(80)
		arrive(t, 20)
	}
	t = 4e5
	script = append(script, psOp{at: t, speed: 0.25})
	for i := 0; i < 400; i++ {
		t += 1 + src.Exp(1)
		script = append(script,
			psOp{at: t, count: 2 + src.Intn(30), demand: 1e-3 * h2.Sample(src)},
			psOp{at: t, count: 1, demand: 1e-3 * h2.Sample(src)})
	}
	script = append(script, psOp{at: t + 1, speed: 1})
	sort.SliceStable(script, func(i, j int) bool { return script[i].at < script[j].at })
	return script
}

// TestPSMatchesReferenceStation holds the virtual-time PS station to the
// per-job one it replaced on seeded scripts.
func TestPSMatchesReferenceStation(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		script := seededPSScript(seed)
		if err := comparePSRuns(script); err != nil {
			t.Errorf("seed %d (%d ops): %v", seed, len(script), err)
		}
	}
}

// decodePSScript turns fuzz bytes into a script, three bytes an op: a
// gap, an arrival of one job or of several equal ones, a speed change
// to 1, 0.25 or 0, or a job of demand 1e5 that holds a long busy period
// open. The script ends with the speed at 1.
func decodePSScript(data []byte) []psOp {
	var script []psOp
	t := 0.0
	for i := 0; i+3 <= len(data) && len(script) < 300; i += 3 {
		a, b, c := data[i], data[i+1], data[i+2]
		scale := math.Exp2(float64(int(b)-128)/10) * (1 + float64(c)/256)
		switch a % 8 {
		case 0, 1:
			t += scale
		case 2, 3, 4:
			script = append(script, psOp{at: t, count: 1, demand: scale})
		case 5:
			script = append(script, psOp{at: t, count: 2 + int(c%8), demand: math.Exp2(float64(int(b)-128) / 10)})
		case 6:
			script = append(script, psOp{at: t, speed: []float64{1, 0.25, 0}[b%3]})
		case 7:
			script = append(script, psOp{at: t, count: 1, demand: 1e5})
		}
	}
	return append(script, psOp{at: t, speed: 1})
}

// FuzzPSStationMatchesReference holds the virtual-time PS station to the
// reference on fuzzed scripts.
func FuzzPSStationMatchesReference(f *testing.F) {
	f.Add([]byte{2, 128, 0, 2, 128, 0, 0, 120, 0, 5, 128, 3})
	f.Add([]byte{7, 0, 0, 0, 200, 0, 2, 100, 9, 6, 1, 0, 0, 100, 0, 6, 2, 0, 0, 100, 0, 6, 0, 0, 5, 60, 7})
	f.Add([]byte{7, 0, 0, 5, 140, 2, 0, 255, 255, 0, 255, 255, 6, 1, 0, 5, 40, 7, 2, 40, 1, 0, 140, 0, 5, 30, 7})
	// A long busy period, then bursts of tiny equal jobs at speed 0.25.
	long := []byte{7, 0, 0}
	for i := 0; i < 10; i++ {
		long = append(long, 0, 255, 255)
	}
	long = append(long, 6, 1, 0)
	for i := 0; i < 6; i++ {
		long = append(long, 5, 10, 29, 0, 100, 0)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := comparePSRuns(decodePSScript(data)); err != nil {
			t.Fatal(err)
		}
	})
}
