package des

import (
	"fmt"
	"math"
)

// Job is a unit of work flowing through stations. Class identifies the
// transaction type (for per-type monitoring); Demand is the total service
// requirement in seconds at nominal speed.
type Job struct {
	ID      int64
	Class   int
	Demand  float64
	Arrived float64 // time the job entered the current station

	// Ctx carries caller-defined state (e.g., the client session driving
	// this job) through station callbacks.
	Ctx any
}

// Station is the common interface of service stations.
type Station interface {
	// Arrive submits a job to the station.
	Arrive(j *Job)
	// QueueLen returns the number of jobs present (waiting or in service).
	QueueLen() int
	// BusyTime returns cumulative time the station was non-idle.
	BusyTime() float64
	// Completions returns the cumulative number of completed jobs.
	Completions() int64
}

const completionEpsilon = 1e-12

// PSStation is an egalitarian processor-sharing server: with n jobs
// present each receives speed/n of the server. Speed can be changed at
// runtime (SetSpeed), which is how the TPC-W simulator injects
// Markov-modulated contention slowdowns at the database tier.
//
// The station keeps virtual time rather than each job's remaining work:
// v is the service a job present since the busy period began has
// received, and it advances by dt*speed/n. A job arriving at virtual
// time v with demand d finishes when v reaches its finish tag v+d, so
// the jobs sit in a min-heap of tags and one event costs O(log n)
// however many jobs share the server. v restarts at zero whenever the
// station empties, so its rounding error is bounded by the busy period,
// not the run.
type PSStation struct {
	Name string

	sim        *Sim
	jobs       psHeap
	done       []*Job // complete's scratch list, reused
	speed      float64
	v          float64 // virtual time of the current busy period
	seq        int64   // arrival sequence, the heap's tie-break
	lastUpdate float64
	// pending is the one completion event, moved by Reschedule; it is
	// canceled (not dropped) while the station is empty or stopped.
	pending    *Event
	completeFn func() // st.complete, bound once
	onComplete func(*Job)

	busyTime    float64
	completions int64
}

// psEntry is one job at a PS station: its finish tag and its arrival
// sequence number, which orders jobs with equal tags first come first.
type psEntry struct {
	tag float64
	seq int64
	job *Job
}

// psHeap is a binary min-heap of jobs ordered by (tag, seq).
type psHeap []psEntry

func (h psHeap) less(i, j int) bool {
	if h[i].tag != h[j].tag {
		return h[i].tag < h[j].tag
	}
	return h[i].seq < h[j].seq
}

func (h *psHeap) push(e psEntry) {
	*h = append(*h, e)
	a := *h
	for j := len(a) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !a.less(j, i) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *psHeap) pop() *Job {
	a := *h
	n := len(a) - 1
	j := a[0].job
	a[0] = a[n]
	a[n] = psEntry{}
	a = a[:n]
	for i := 0; ; {
		c := 2*i + 1 // left child
		if c >= n {
			break
		}
		if r := c + 1; r < n && a.less(r, c) {
			c = r
		}
		if !a.less(c, i) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return j
}

// NewPSStation builds a processor-sharing station; onComplete is invoked
// for every finished job (it may route the job elsewhere).
func NewPSStation(sim *Sim, name string, onComplete func(*Job)) *PSStation {
	if sim == nil || onComplete == nil {
		panic("des: PSStation needs a sim and a completion callback")
	}
	st := &PSStation{Name: name, sim: sim, speed: 1, onComplete: onComplete}
	st.completeFn = st.complete
	return st
}

// advance progresses virtual time to the current instant.
func (st *PSStation) advance() {
	now := st.sim.Now()
	dt := now - st.lastUpdate
	st.lastUpdate = now
	if dt <= 0 || len(st.jobs) == 0 {
		return
	}
	st.busyTime += dt
	st.v += dt * st.speed / float64(len(st.jobs))
}

// reschedule plans the next completion event: the job with the least
// finish tag, at the current rate of virtual time.
func (st *PSStation) reschedule() {
	if len(st.jobs) == 0 || st.speed <= 0 {
		st.pending.Cancel()
		return
	}
	minRem := st.jobs[0].tag - st.v
	if minRem < 0 {
		minRem = 0
	}
	delay := minRem * float64(len(st.jobs)) / st.speed
	st.pending = st.sim.Reschedule(st.pending, delay, st.completeFn)
}

// Arrive submits a job; its finish tag is the current virtual time plus
// its Demand.
func (st *PSStation) Arrive(j *Job) {
	if j.Demand <= 0 || math.IsNaN(j.Demand) {
		panic(fmt.Sprintf("des: job %d has invalid demand %v", j.ID, j.Demand))
	}
	st.advance()
	j.Arrived = st.sim.Now()
	st.seq++
	st.jobs.push(psEntry{tag: st.v + j.Demand, seq: st.seq, job: j})
	st.reschedule()
}

// complete fires when the job with the least finish tag finishes.
func (st *PSStation) complete() {
	st.advance()
	// Pop every job whose tag virtual time has (numerically) reached;
	// simultaneous completions are possible after speed changes.
	done := st.done[:0]
	for len(st.jobs) > 0 && st.jobs[0].tag-st.v <= completionEpsilon {
		done = append(done, st.jobs.pop())
	}
	if len(done) == 0 {
		// Numerical drift: force the least-tag job out.
		done = append(done, st.jobs.pop())
	}
	if len(st.jobs) == 0 {
		st.v = 0
	}
	st.reschedule()
	for i, j := range done {
		done[i] = nil
		st.completions++
		st.onComplete(j)
	}
	st.done = done[:0]
}

// SetSpeed changes the service speed multiplier (1 = nominal). Virtual
// time is advanced under the old speed first; the finish tags stand.
func (st *PSStation) SetSpeed(f float64) {
	if f < 0 || math.IsNaN(f) {
		panic(fmt.Sprintf("des: invalid speed %v", f))
	}
	st.advance()
	st.speed = f
	st.reschedule()
}

// Speed returns the current speed multiplier.
func (st *PSStation) Speed() float64 { return st.speed }

// QueueLen returns the number of jobs at the station.
func (st *PSStation) QueueLen() int { return len(st.jobs) }

// BusyTime returns cumulative non-idle time up to the current instant.
func (st *PSStation) BusyTime() float64 {
	st.advance()
	return st.busyTime
}

// Completions returns the number of jobs completed so far.
func (st *PSStation) Completions() int64 { return st.completions }

// FCFSStation is a single-server first-come-first-served queue.
type FCFSStation struct {
	Name string

	sim        *Sim
	queue      []*Job // waiting jobs are queue[head:]
	head       int
	inService  *Job
	pending    *Event // the one completion event, moved by Reschedule
	completeFn func() // st.complete, bound once
	onComplete func(*Job)
	serveStart float64

	busyTime    float64
	completions int64
}

// NewFCFSStation builds a FCFS station.
func NewFCFSStation(sim *Sim, name string, onComplete func(*Job)) *FCFSStation {
	if sim == nil || onComplete == nil {
		panic("des: FCFSStation needs a sim and a completion callback")
	}
	st := &FCFSStation{Name: name, sim: sim, onComplete: onComplete}
	st.completeFn = st.complete
	return st
}

// Arrive enqueues a job, starting service immediately if idle.
func (st *FCFSStation) Arrive(j *Job) {
	if j.Demand <= 0 || math.IsNaN(j.Demand) {
		panic(fmt.Sprintf("des: job %d has invalid demand %v", j.ID, j.Demand))
	}
	j.Arrived = st.sim.Now()
	if n := len(st.queue); n == cap(st.queue) && st.head >= n/2 && st.head > 0 {
		// Full, and at least half of it served: slide the waiting jobs
		// down instead of growing the array.
		live := copy(st.queue, st.queue[st.head:])
		clear(st.queue[live:])
		st.queue, st.head = st.queue[:live], 0
	}
	st.queue = append(st.queue, j)
	if st.inService == nil {
		st.startNext()
	}
}

func (st *FCFSStation) startNext() {
	if st.head == len(st.queue) {
		// Empty: rewind so the backing array is reused from the start.
		st.queue, st.head = st.queue[:0], 0
		st.inService = nil
		return
	}
	st.inService = st.queue[st.head]
	st.queue[st.head] = nil
	st.head++
	st.serveStart = st.sim.Now()
	st.pending = st.sim.Reschedule(st.pending, st.inService.Demand, st.completeFn)
}

func (st *FCFSStation) complete() {
	j := st.inService
	st.busyTime += st.sim.Now() - st.serveStart
	st.completions++
	st.startNext()
	st.onComplete(j)
}

// QueueLen returns the number of jobs waiting or in service.
func (st *FCFSStation) QueueLen() int {
	n := len(st.queue) - st.head
	if st.inService != nil {
		n++
	}
	return n
}

// BusyTime returns cumulative non-idle time (including the in-progress
// service up to the current instant).
func (st *FCFSStation) BusyTime() float64 {
	b := st.busyTime
	if st.inService != nil {
		b += st.sim.Now() - st.serveStart
	}
	return b
}

// Completions returns the number of jobs completed so far.
func (st *FCFSStation) Completions() int64 { return st.completions }

// Interface conformance.
var (
	_ Station = (*PSStation)(nil)
	_ Station = (*FCFSStation)(nil)
)
