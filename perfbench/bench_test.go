package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	burst "repro"
)

// inputs returns every workload's generated input bytes for one seed.
func inputs(seed int64) map[string][][]byte {
	return map[string][][]byte{
		"grid-exact":     {gridExactSuite(seed)},
		"wide-decomp":    wideDecompSuites(seed),
		"xval-sim":       {xvalSuite(seed)},
		"service-whatif": whatifCatalog(seed),
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, again, other := inputs(7), inputs(7), inputs(8)
	for name := range a {
		if !bytes.Equal(bytes.Join(a[name], nil), bytes.Join(again[name], nil)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(bytes.Join(a[name], nil), bytes.Join(other[name], nil)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
	q1, q2, q3 := newQueryStream(7), newQueryStream(7), newQueryStream(8)
	same, differ := true, false
	for i := 0; i < 100; i++ {
		x, y, z := q1.next(), q2.next(), q3.next()
		same = same && x == y
		differ = differ || x != z
	}
	if !same || !differ {
		t.Errorf("query stream: same seed identical %v, different seed different %v", same, differ)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{2000, 99}, {1010, 99}, {1000, 99}, {64, 84.375}, {21, 100 * 11.0 / 21},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // descending, so the helper must sort
		}
		p, v := tailPercentile(xs)
		if math.Abs(p-c.wantP) > 1e-9 {
			t.Errorf("n=%d: p%v, want p%v", c.n, p, c.wantP)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: %d samples beyond p%v, want at least %d", c.n, beyond, p, minTail)
		}
		// The next rank up would leave fewer than minTail beyond, unless
		// the p99 cap stopped the climb first.
		if p < 99 && beyond != minTail {
			t.Errorf("n=%d: %d samples beyond p%v; a higher percentile still has %d", c.n, beyond, p, minTail)
		}
	}
	if p, v := tailPercentile([]float64{3, 1, 2, 4}); p != 50 || v != 2.5 {
		t.Errorf("4 samples: p%v = %v, want the median as p50", p, v)
	}
}

// The fixed-percentile tail of a pass names the same rank whatever else
// ran: the p90 of 16 cells is the second slowest, the p99 of 2000
// queries has 20 samples beyond it.
func TestPercentileIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{16, 90, 14}, {3, 90, 2}, {2000, 99, 1979}, {1, 99, 0}, {10, 50, 4},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i)
		}
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 0..%d: %v, want %v", c.p, c.n-1, got, c.want)
		}
	}
}

func TestLawCheckerRejectsPerturbedThroughput(t *testing.T) {
	sc, err := burst.ParseScenario([]byte(`{
		"name": "laws", "think_time": 0.5, "populations": [3, 6],
		"tiers": [
			{"name": "front", "mean": 0.0068, "index_of_dispersion": 4, "p95": 0.021},
			{"name": "db", "mean": 0.0046, "index_of_dispersion": 40, "p95": 0.019}
		],
		"solvers": ["map", "decomp", "mva", "bounds"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := burst.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkReport(rep); len(bad) != 0 {
		t.Fatalf("unperturbed report rejected: %v", bad)
	}
	for _, col := range []string{"map", "decomp", "mva"} {
		for i := range rep.Results {
			x := throughput(&rep.Results[i], col)
			saved := *x
			*x *= 1.01
			if bad := checkReport(rep); len(bad) == 0 {
				t.Errorf("%s X at N=%d raised by 1%% passed the checks", col, rep.Results[i].Population)
			}
			*x = saved
		}
	}
}

// A report whose exact solve gave up and fell back must fail the gate,
// however well the stand-in columns obey the laws.
func TestGateRejectsDegradedOrMissingColumns(t *testing.T) {
	sc, err := burst.ParseScenario([]byte(`{
		"name": "gate", "think_time": 0.5, "populations": [3, 6],
		"tiers": [
			{"name": "front", "mean": 0.0068, "index_of_dispersion": 4, "p95": 0.021},
			{"name": "db", "mean": 0.0046, "index_of_dispersion": 40, "p95": 0.019}
		],
		"solvers": ["map", "mva", "bounds"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := burst.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkReport(rep); len(bad) != 0 {
		t.Fatalf("exact report rejected: %v", bad)
	}
	degraded := *rep
	degraded.Degraded, degraded.FallbackReason = true, "ctmc: did not converge"
	if bad := checkReport(&degraded); len(bad) == 0 {
		t.Error("degraded report passed the gate")
	}
	missing := *rep
	missing.Results = append([]burst.PopulationReport(nil), rep.Results...)
	missing.Results[1].MAP = nil
	if bad := checkReport(&missing); len(bad) != 1 {
		t.Errorf("report without the map column at N=6: %v, want one violation", bad)
	}
}

// Only the pinned cell's non-convergence is a measured outcome; the same
// failure on any other cell, or another failure of the pinned cell,
// counts as failed.
func TestTallyCountsUnknownFailures(t *testing.T) {
	const pinned = "wide-decomp-k6 db.index_of_dispersion=400 app.index_of_dispersion=120"
	noConv := &burst.CellFailure{Stage: burst.StageSolve, Message: "mapqn: population 200: ctmc: steady-state iteration did not converge"}
	other := &burst.CellFailure{Stage: burst.StageFit, Message: "fit failed"}
	rows := []burst.SuiteRow{
		{Name: pinned, Status: burst.CellStatusFailed, Error: noConv},
		{Name: "wide-decomp-k6 db.index_of_dispersion=40 app.index_of_dispersion=120", Status: burst.CellStatusFailed, Error: noConv},
		{Name: pinned, Status: burst.CellStatusFailed, Error: other},
	}
	var res passResult
	known := tally(rows, &res)
	if res.attempted != 3 || res.failed != 2 || len(known) != 1 {
		t.Errorf("attempted %d, failed %d, known %d; want 3, 2, 1", res.attempted, res.failed, len(known))
	}
}

// Untraced passes run the workload as given; only a traced pass keeps the
// simulated monitoring streams, for the characterization timing.
func TestTracingKeepsSamplesOnACopy(t *testing.T) {
	s, err := burst.ParseSuite(xvalSuite(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Base.Workload.KeepSamples {
		t.Fatal("xval-sim keeps samples untraced")
	}
	traced := s
	traceSuite(&traced, newHookLog())
	if !traced.Base.Workload.KeepSamples || s.Base.Workload.KeepSamples {
		t.Errorf("traced keeps samples %v, untraced %v; want true, false", traced.Base.Workload.KeepSamples, s.Base.Workload.KeepSamples)
	}
}

func throughput(pr *burst.PopulationReport, col string) *float64 {
	switch col {
	case "map":
		return &pr.MAP.Throughput
	case "decomp":
		return &pr.Decomp.Throughput
	}
	return &pr.MVA.Throughput
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ss := &spanSet{}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	cell := ss.add("cell", nil, "", 0, sec(10))
	ss.add("a", cell, "", sec(1), sec(3))
	ss.add("b", cell, "", sec(2), sec(5))  // overlaps a
	ss.add("c", cell, "", sec(8), sec(12)) // runs past the parent
	if got := ss.selfTime("cell"); math.Abs(got-4) > 1e-9 {
		t.Errorf("self time %v, want 4", got)
	}
	if got := ss.busy("a") + ss.busy("b"); math.Abs(got-5) > 1e-9 {
		t.Errorf("busy %v, want 5", got)
	}
}

// Timings are scaled by the host probe's factor, throughput by its
// inverse; counts and memory are not.
func TestEndToEndScalesTimingsOnly(t *testing.T) {
	passes := []passResult{{wall: 2 * time.Second, latencies: []float64{10, 20, 30}, attempted: 3, alloc: 5e6, peakMem: 7e6}}
	plain := endToEnd([]float64{0.5}, passes, 90, 1)
	scaled := endToEnd([]float64{0.5}, passes, 90, 0.5)
	for name, m := range plain {
		want := m.Value
		switch name {
		case "setup_s", "wall_s", "query_p50_ms", "query_p99_ms":
			want *= 0.5
		case "queries_per_s":
			want *= 2
		}
		if got := scaled[name].Value; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s at scale 0.5: %v, want %v", name, got, want)
		}
	}
	h := &hostProbe{times: []float64{probeRefMs, 2 * probeRefMs, 2 * probeRefMs}}
	if got := h.scale(); got != 0.5 {
		t.Errorf("probes at twice the reference time: scale %v, want 0.5", got)
	}
}

// TestBenchmarkDeclaresEveryMetric pins BENCHMARK.json to what the
// command prints: every end-to-end and per-layer name, with its unit.
func TestBenchmarkDeclaresEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench/")
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]float64{1}, []passResult{{wall: time.Second, latencies: []float64{1}, attempted: 1}}, 99, 1)
	if len(decl.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the command prints %d", len(decl.EndToEnd), len(e2e))
	}
	for _, m := range decl.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(decl.PerLayer) != len(layerNames) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the command prints %d", len(decl.PerLayer), len(layerNames))
	}
	printed := map[string]bool{}
	for _, n := range layerNames {
		printed[n] = true
	}
	for _, m := range decl.PerLayer {
		if !printed[m.Name] || layerUnit(m.Name) != m.Unit {
			t.Errorf("per-layer %s (%s): printed %v with unit %s", m.Name, m.Unit, printed[m.Name], layerUnit(m.Name))
		}
	}
}
