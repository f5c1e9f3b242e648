package tpcw

import (
	"math"
	"strings"
	"testing"
)

// twoTier returns cfg with the paper's front+DB tiers for its mix.
func twoTier(t *testing.T, cfg ConfigN) ConfigN {
	t.Helper()
	tiers, err := DefaultTiers(cfg.Mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tiers = tiers
	return cfg
}

// Golden values captured from the dedicated two-tier engine at commit
// f0e5945, immediately before it was replaced by the N-tier engine.
// Exact float equality (hex literals carry the full bit pattern) proves
// the generalized path on DefaultTiers(mix, 2) reproduces the seed
// engine draw-for-draw.
func TestRunBitIdenticalToSeedEngine(t *testing.T) {
	type series struct {
		nfu                  int
		fu10, du10, q10, in2 float64
	}
	cases := []struct {
		name      string
		cfg       ConfigN
		x         float64
		completed int64
		mean, p95 float64
		uf, ud    float64
		cf, cd    float64
		nfs       int
		fs0, fsL  float64
		ds0, dsc0 float64
		series    *series
	}{
		{
			name:      "shopping30",
			cfg:       ConfigN{Mix: ShoppingMix(), EBs: 30, Seed: 77, Duration: 900, Warmup: 60, Cooldown: 30},
			x:         0x1.cc1e573ac901ep+05,
			completed: 46587,
			mean:      0x1.642fae2affb9dp-06, p95: 0x1.da287442e9b2ep-05,
			uf: 0x1.47e7b6d037e48p-02, ud: 0x1.a111ef547e786p-03,
			cf: 0, cd: 0x1.dfdc93562c10ap-05,
			nfs: 162,
			fs0: 0x1.33d16ffd0dc8p-02, fsL: 0x1.18d7715d8cb33p-02,
			ds0: 0x1.495125de80cp-03, dsc0: 0x1.35p+08,
		},
		{
			name:      "browsing100-series",
			cfg:       ConfigN{Mix: BrowsingMix(), EBs: 100, Seed: 9, Duration: 900, Warmup: 60, Cooldown: 30, TrackSeries: true},
			x:         0x1.93c9a3b6ad31fp+06,
			completed: 81767,
			mean:      0x1.f6dcbc9cc48acp-02, p95: 0x1.282e8b4b82253p+01,
			uf: 0x1.ac667c9fd8b44p-01, ud: 0x1.2e56d7b1a684dp-01,
			cf: 0x1.077a4837c2572p-02, cd: 0x1.0bb399820ddb3p-02,
			nfs: 162,
			fs0: 0x1p+00, fsL: 0x1.cc864f3a844p-01,
			ds0: 0x1.4ff7049f1864dp-01, dsc0: 0x1.908p+09,
			series: &series{
				nfu:  900,
				fu10: 0x1.cf3d3ceaf6dcp-03, du10: 0x1p+00,
				q10: 0x1.48p+06, in2: 0x1.1p+04,
			},
		},
		{
			name:      "ordering50-z2",
			cfg:       ConfigN{Mix: OrderingMix(), EBs: 50, Seed: 1, Duration: 600, Warmup: 120, Cooldown: 60, MonitorPeriod: 5, ThinkTime: 2},
			x:         0x1.8bcf3cf3cf3cfp+04,
			completed: 10390,
			mean:      0x1.0c5d85d76b46dp-07, p95: 0x1.a457fa926d999p-06,
			uf: 0x1.f55e5c7eac151p-04, ud: 0x1.e685eae57f246p-05,
			cf: 0, cd: 0x1.2c00342e62274p-08,
			nfs: 84,
			fs0: 0x1.b154f954c9733p-04, fsL: 0x1.37bed86aee666p-03,
			ds0: 0x1.66cff9ede119ap-04, dsc0: 0x1.dcp+06,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunN(twoTier(t, tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			check := func(field string, got, want float64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %x, want %x", field, got, want)
				}
			}
			check("Throughput", res.Throughput, tc.x)
			if res.Completed != tc.completed {
				t.Errorf("Completed = %d, want %d", res.Completed, tc.completed)
			}
			check("MeanResponse", res.MeanResponse, tc.mean)
			check("P95Response", res.P95Response, tc.p95)
			check("AvgUtilFront", res.AvgUtil[0], tc.uf)
			check("AvgUtilDB", res.AvgUtil[1], tc.ud)
			check("FrontContentionFraction", res.ContentionFraction[0], tc.cf)
			check("DBContentionFraction", res.ContentionFraction[1], tc.cd)
			if len(res.TierSamples[0].Utilization) != tc.nfs {
				t.Fatalf("front samples = %d, want %d", len(res.TierSamples[0].Utilization), tc.nfs)
			}
			check("FrontSamples[0]", res.TierSamples[0].Utilization[0], tc.fs0)
			check("FrontSamples[last]", res.TierSamples[0].Utilization[tc.nfs-1], tc.fsL)
			check("DBSamples[0]", res.TierSamples[1].Utilization[0], tc.ds0)
			check("DBSamples.Completions[0]", res.TierSamples[1].Completions[0], tc.dsc0)
			if tc.series != nil {
				if len(res.TierUtil1s[0]) != tc.series.nfu {
					t.Fatalf("FrontUtil1s len = %d, want %d", len(res.TierUtil1s[0]), tc.series.nfu)
				}
				check("FrontUtil1s[10]", res.TierUtil1s[0][10], tc.series.fu10)
				check("DBUtil1s[10]", res.TierUtil1s[1][10], tc.series.du10)
				check("DBQueueLen1s[10]", res.TierQueueLen1s[1][10], tc.series.q10)
				check("InSystem1s[2][10]", res.InSystem1s[2][10], tc.series.in2)
			}
		})
	}
}

func TestRunNThreeTier(t *testing.T) {
	tiers, err := DefaultTiers(BrowsingMix(), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunN(ConfigN{
		Mix: BrowsingMix(), Tiers: tiers,
		EBs: 60, Seed: 31, Duration: 600, Warmup: 60, Cooldown: 30,
		TrackSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"front", "app", "db"}
	for i, n := range wantNames {
		if res.TierNames[i] != n {
			t.Errorf("tier %d name = %q, want %q", i, res.TierNames[i], n)
		}
	}
	if res.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	if len(res.TierSamples) != 3 || len(res.AvgUtil) != 3 || len(res.ContentionFraction) != 3 {
		t.Fatalf("per-tier slices have lengths %d/%d/%d, want 3",
			len(res.TierSamples), len(res.AvgUtil), len(res.ContentionFraction))
	}
	for i := range res.TierSamples {
		if err := res.TierSamples[i].Validate(); err != nil {
			t.Errorf("tier %d samples: %v", i, err)
		}
		if res.AvgUtil[i] <= 0 || res.AvgUtil[i] > 1 {
			t.Errorf("tier %d utilization = %v out of (0,1]", i, res.AvgUtil[i])
		}
		if len(res.TierUtil1s[i]) != 600 || len(res.TierQueueLen1s[i]) != 600 {
			t.Errorf("tier %d series lengths = %d/%d, want 600",
				i, len(res.TierUtil1s[i]), len(res.TierQueueLen1s[i]))
		}
	}
	// The app tier carries 60% of the front demand with one pass and no
	// contention: its utilization must sit below the front's, and its
	// contention fraction must be exactly zero.
	if res.AvgUtil[1] >= res.AvgUtil[0] {
		t.Errorf("app utilization %v >= front %v", res.AvgUtil[1], res.AvgUtil[0])
	}
	if res.ContentionFraction[1] != 0 {
		t.Errorf("app contention fraction = %v, want 0", res.ContentionFraction[1])
	}
	var total int64
	for _, c := range res.CompletedByType {
		total += c
	}
	if total != res.Completed {
		t.Errorf("per-type counts sum to %d, total %d", total, res.Completed)
	}
	// Every tier's transaction-level completion counts describe the same
	// transaction stream: totals in the window may differ only by the
	// transactions in flight at the window edges.
	for i := range res.TierSamples {
		sum := 0.0
		for _, c := range res.TierSamples[i].Completions {
			sum += c
		}
		if math.Abs(sum-float64(res.Completed)) > float64(res.Config.EBs) {
			t.Errorf("tier %d windowed completions = %v, want ~%d", i, sum, res.Completed)
		}
	}
}

func TestRunReplicasDeterministicAcrossWorkerCounts(t *testing.T) {
	tiers, err := DefaultTiers(ShoppingMix(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigN{
		Mix: ShoppingMix(), Tiers: tiers,
		EBs: 20, Seed: 123, Duration: 240, Warmup: 30, Cooldown: 30,
	}
	a, err := RunReplicas(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplicas(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs: %d vs %d", i, a.Seeds[i], b.Seeds[i])
		}
		for j := i + 1; j < len(a.Seeds); j++ {
			if a.Seeds[i] == a.Seeds[j] {
				t.Fatalf("replicas %d and %d share seed %d", i, j, a.Seeds[i])
			}
		}
	}
	for r := range a.Results {
		if a.Results[r].Throughput != b.Results[r].Throughput ||
			a.Results[r].Completed != b.Results[r].Completed {
			t.Errorf("replica %d differs across worker counts: X %v vs %v",
				r, a.Results[r].Throughput, b.Results[r].Throughput)
		}
	}
	if a.Throughput != b.Throughput || a.MeanResponse != b.MeanResponse {
		t.Errorf("aggregate intervals differ: %+v vs %+v", a.Throughput, b.Throughput)
	}
	for i := range a.AvgUtil {
		if a.AvgUtil[i] != b.AvgUtil[i] {
			t.Errorf("tier %d utilization interval differs", i)
		}
	}
	// Pooled samples concatenate in replica order: length R * per-replica.
	perReplica := len(a.Results[0].TierSamples[0].Utilization)
	if got := len(a.TierSamples[0].Utilization); got != 4*perReplica {
		t.Errorf("pooled samples = %d, want %d", got, 4*perReplica)
	}
	for i := range a.TierSamples {
		for k := range a.TierSamples[i].Utilization {
			if a.TierSamples[i].Utilization[k] != b.TierSamples[i].Utilization[k] {
				t.Fatalf("pooled tier %d sample %d differs", i, k)
			}
		}
	}
	// Replica 0 is seeded independently of the root config seed value
	// itself: its result must equal a direct RunN at that derived seed.
	c := cfg.WithDefaults()
	c.Seed = a.Seeds[0]
	direct, err := RunN(c)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Throughput != a.Results[0].Throughput {
		t.Errorf("replica 0 throughput %v != direct run %v", a.Results[0].Throughput, direct.Throughput)
	}
	// Confidence interval sanity: positive half-width from 4 replicas.
	if a.Throughput.HalfWidth <= 0 || a.Throughput.N != 4 {
		t.Errorf("throughput interval %+v, want positive half-width over 4 replicas", a.Throughput)
	}
}

func TestZeroWindowSentinel(t *testing.T) {
	// A literal 0 stays "unset" and takes the paper defaults.
	d := ConfigN{}.WithDefaults()
	if d.Warmup != 120 || d.Cooldown != 60 {
		t.Fatalf("unset windows defaulted to %v/%v, want 120/60", d.Warmup, d.Cooldown)
	}
	// The sentinel expresses an exact zero.
	d = ConfigN{Warmup: ZeroWindow, Cooldown: ZeroWindow}.WithDefaults()
	if d.Warmup != 0 || d.Cooldown != 0 {
		t.Fatalf("sentinel windows became %v/%v, want 0/0", d.Warmup, d.Cooldown)
	}
	res, err := RunN(twoTier(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 5, Duration: 300, Warmup: ZeroWindow, Cooldown: ZeroWindow}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.TierSamples[0].Utilization); got != 60 {
		t.Errorf("untrimmed samples = %d, want 60 (300 s / 5 s, nothing trimmed)", got)
	}
	if res.Config.Warmup != 0 || res.Config.Cooldown != 0 {
		t.Errorf("result config windows = %v/%v, want 0/0", res.Config.Warmup, res.Config.Cooldown)
	}
	// Mixed: explicit zero warm-up, defaulted cool-down.
	res, err = RunN(twoTier(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 5, Duration: 300, Warmup: ZeroWindow, Cooldown: 30}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.TierSamples[0].Utilization); got != 54 {
		t.Errorf("samples = %d, want 54 (only 30 s cool-down trimmed)", got)
	}
}

func TestMisalignedTrimWindowsRejected(t *testing.T) {
	// A warm-up that is not a whole multiple of MonitorPeriod used to be
	// silently truncated (int(60+3)/5 = 12 periods), leaking 3 warm-up
	// seconds into the analyzed samples. It is now a validation error.
	_, err := RunN(twoTier(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 5, Duration: 300, Warmup: 63, Cooldown: 30}))
	if err == nil || !strings.Contains(err.Error(), "whole multiple") {
		t.Fatalf("misaligned warmup: err = %v, want whole-multiple validation error", err)
	}
	_, err = RunN(twoTier(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 5, Duration: 300, Warmup: 60, Cooldown: 31}))
	if err == nil || !strings.Contains(err.Error(), "whole multiple") {
		t.Fatalf("misaligned cooldown: err = %v, want whole-multiple validation error", err)
	}
	// A ragged duration would leave the sample stream covering a
	// different window than the throughput measurement.
	_, err = RunN(twoTier(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 5, Duration: 303, Warmup: 60, Cooldown: 30}))
	if err == nil || !strings.Contains(err.Error(), "whole multiple") {
		t.Fatalf("misaligned duration: err = %v, want whole-multiple validation error", err)
	}
}

func TestWindowPeriodsRoundsUp(t *testing.T) {
	cases := []struct {
		window, period float64
		want           int
	}{
		{0, 5, 0},
		{30, 5, 6},
		{63, 5, 13},   // rounds up, never truncates warm-up into the window
		{0.7, 0.1, 7}, // float division 0.7/0.1 = 6.999... still exact
		{ZeroWindow, 5, 0},
	}
	for _, c := range cases {
		if got := windowPeriods(c.window, c.period); got != c.want {
			t.Errorf("windowPeriods(%v, %v) = %d, want %d", c.window, c.period, got, c.want)
		}
	}
}

func TestConfigNValidation(t *testing.T) {
	tiers, err := DefaultTiers(OrderingMix(), 2)
	if err != nil {
		t.Fatal(err)
	}
	good := ConfigN{Mix: OrderingMix(), Tiers: tiers, EBs: 10, Duration: 300, Warmup: 30, Cooldown: 30}
	if err := good.WithDefaults().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Tiers = nil
	if err := bad.WithDefaults().Validate(); err == nil {
		t.Error("expected error for empty tiers")
	}
	bad = good
	bad.Tiers = append([]TierConfig(nil), tiers...)
	bad.Tiers[0].Demands[Home].Mean = -1
	if err := bad.WithDefaults().Validate(); err == nil {
		t.Error("expected error for negative demand")
	}
	bad = good
	bad.Tiers = append([]TierConfig(nil), tiers...)
	bad.Tiers[1].Demands[Home].MinPasses = 3
	bad.Tiers[1].Demands[Home].MaxPasses = 2
	if err := bad.WithDefaults().Validate(); err == nil {
		t.Error("expected error for inverted pass bounds")
	}
	if _, err := DefaultTiers(OrderingMix(), 1); err == nil {
		t.Error("expected error for DefaultTiers(k=1)")
	}
}

func TestLegacyProfilesStillRejectSubExponentialSCV(t *testing.T) {
	// The per-pass demand profiles are H2 draws, which need SCV >= 1:
	// a sub-exponential SCV must be rejected rather than run with
	// silently different semantics. (A zero SCV means unset and
	// defaults to exponential.)
	cfg := twoTier(t, ConfigN{Mix: OrderingMix(), EBs: 10, Seed: 5, Duration: 300, Warmup: 30, Cooldown: 30})
	cfg.Tiers[0].Demands[Home].SCV = 0.5
	_, err := RunN(cfg)
	if err == nil || !strings.Contains(err.Error(), "SCV") {
		t.Fatalf("sub-exponential SCV: err = %v, want SCV rejection", err)
	}
}

func TestWithDefaultsDoesNotAliasTiers(t *testing.T) {
	tiers, err := DefaultTiers(OrderingMix(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tiers[0].Demands[Home].SCV = 0 // let WithDefaults fill it
	cfg := ConfigN{Mix: OrderingMix(), Tiers: tiers, EBs: 10}
	d := cfg.WithDefaults()
	if d.Tiers[0].Demands[Home].SCV != 1 {
		t.Fatalf("default SCV = %v, want 1", d.Tiers[0].Demands[Home].SCV)
	}
	if cfg.Tiers[0].Demands[Home].SCV != 0 {
		t.Error("WithDefaults mutated the caller's tier slice")
	}
}
