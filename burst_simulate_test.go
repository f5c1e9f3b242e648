package burst

import (
	"context"
	"testing"
)

// The facade's N-tier simulation entry points: build a 3-tier testbed,
// run a small replicated simulation, and check the aggregate shape. The
// heavier engine behaviour (bit-identity with the seed two-tier engine,
// worker-count invariance) is covered in internal/tpcw, cross-validation
// accuracy in burst_xval_test.go.
func TestSimulateTPCWReplicasFacade(t *testing.T) {
	tiers, err := DefaultTPCWTiers(OrderingMix(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 3 || tiers[1].Name != "app" {
		t.Fatalf("tiers = %d/%q, want 3 with app middle", len(tiers), tiers[1].Name)
	}
	cfg := TPCWConfigN{
		Mix: OrderingMix(), Tiers: tiers,
		EBs: 15, Seed: 99, Duration: 240, Warmup: 30, Cooldown: 30,
	}
	rr, err := SimulateReplicas(context.Background(), cfg, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 2 || len(rr.AvgUtil) != 3 || len(rr.TierSamples) != 3 {
		t.Fatalf("replica result shape: %d results, %d utils, %d sample streams",
			len(rr.Results), len(rr.AvgUtil), len(rr.TierSamples))
	}
	if rr.Throughput.Mean <= 0 {
		t.Fatalf("throughput interval %+v, want positive mean", rr.Throughput)
	}
	for i, s := range rr.TierSamples {
		if err := s.Validate(); err != nil {
			t.Errorf("pooled tier %d samples: %v", i, err)
		}
	}
	// Single runs through the same facade agree with replica 0.
	c := cfg
	c.Seed = rr.Seeds[0]
	single, err := Simulate(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if single.Throughput != rr.Results[0].Throughput {
		t.Errorf("facade single run X = %v, replica 0 X = %v", single.Throughput, rr.Results[0].Throughput)
	}
}
