package tpcw

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/xrand"
)

// ContentionParams configures a Markov-modulated slowdown environment on
// a server: trigger events (query or page-build starts) push the server
// into a contended state where all in-progress work proceeds at
// SlowFactor of nominal speed for an exponentially distributed epoch.
// This is the simulator's stand-in for the database locking, buffer-pool
// and memory contention the paper identifies as the low-level causes of
// service burstiness (Sections 1 and 3.3).
type ContentionParams struct {
	// TriggerProbability is the chance that a triggering event starts a
	// contention epoch (ignored if one is already active). Zero disables
	// the environment.
	TriggerProbability float64
	// SlowFactor is the service speed during contention (0 < f < 1).
	SlowFactor float64
	// MeanDuration is the mean epoch length in seconds.
	MeanDuration float64
	// BackgroundRate is the rate (per second) of autonomous contention
	// epochs that occur regardless of load — checkpoint flushes, log
	// rotation, cache maintenance. These keep the service process bursty
	// even in lightly loaded measurement runs (the paper's Zestim = 7 s
	// experiments still observe burstiness at a few transactions per
	// second). Zero disables the background component.
	BackgroundRate float64
}

// Enabled reports whether the environment can ever activate.
func (p ContentionParams) Enabled() bool {
	return p.TriggerProbability > 0 || p.BackgroundRate > 0
}

// Validate checks parameter ranges.
func (p ContentionParams) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if p.TriggerProbability < 0 || p.TriggerProbability > 1 {
		return fmt.Errorf("tpcw: trigger probability %v out of [0,1]", p.TriggerProbability)
	}
	if p.BackgroundRate < 0 {
		return fmt.Errorf("tpcw: background rate %v must be >= 0", p.BackgroundRate)
	}
	if p.SlowFactor <= 0 || p.SlowFactor >= 1 {
		return fmt.Errorf("tpcw: slow factor %v out of (0,1)", p.SlowFactor)
	}
	if p.MeanDuration <= 0 {
		return fmt.Errorf("tpcw: mean duration %v must be > 0", p.MeanDuration)
	}
	return nil
}

// contentionEnv attaches a ContentionParams environment to a PS station.
type contentionEnv struct {
	params  ContentionParams
	station *des.PSStation
	sim     *des.Sim
	src     *xrand.Source

	active       bool
	activations  int64
	contendedDur float64
	lastStart    float64

	// recovery is the one pending end-of-epoch event (epochs never
	// overlap), moved by Reschedule; recoverFn is e.recover, bound once.
	recovery  *des.Event
	recoverFn func()
}

func newContentionEnv(sim *des.Sim, station *des.PSStation, params ContentionParams, src *xrand.Source) *contentionEnv {
	e := &contentionEnv{params: params, station: station, sim: sim, src: src}
	e.recoverFn = e.recover
	if params.BackgroundRate > 0 {
		var next *des.Event
		var background func()
		background = func() {
			e.activate()
			next = sim.Reschedule(next, src.ExpRate(params.BackgroundRate), background)
		}
		next = sim.Schedule(src.ExpRate(params.BackgroundRate), background)
	}
	return e
}

// activate starts a contention epoch unconditionally (unless one is
// already running).
func (e *contentionEnv) activate() {
	if e.active || !e.params.Enabled() {
		return
	}
	e.active = true
	e.activations++
	e.lastStart = e.sim.Now()
	e.station.SetSpeed(e.params.SlowFactor)
	e.recovery = e.sim.Reschedule(e.recovery, e.src.Exp(e.params.MeanDuration), e.recoverFn)
}

// maybeTrigger is called on each triggering event; it starts a contention
// epoch with probability TriggerProbability*weight.
func (e *contentionEnv) maybeTrigger(weight float64) {
	if e == nil || e.active || weight <= 0 || e.params.TriggerProbability <= 0 {
		return
	}
	if e.src.Float64() >= e.params.TriggerProbability*weight {
		return
	}
	e.activate()
}

func (e *contentionEnv) recover() {
	if !e.active {
		return
	}
	e.active = false
	e.contendedDur += e.sim.Now() - e.lastStart
	e.station.SetSpeed(1)
}

// contendedFraction returns the fraction of the horizon spent contended.
func (e *contentionEnv) contendedFraction(horizon float64) float64 {
	if e == nil || horizon <= 0 {
		return 0
	}
	d := e.contendedDur
	if e.active {
		d += e.sim.Now() - e.lastStart
	}
	return d / horizon
}
