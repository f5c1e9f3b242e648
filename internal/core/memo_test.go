package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/mapqn"
	"repro/internal/markov"
)

// fitStub returns a distinguishable FitResult for key i.
func fitStub(i int) markov.FitResult {
	return markov.FitResult{SCV: float64(i)}
}

// doFit performs one Fit lookup through m, counting compute calls.
func doFit(t *testing.T, m *Memo, key string, i int, calls *int) markov.FitResult {
	t.Helper()
	got, err := m.Fit(key, func() (markov.FitResult, error) {
		*calls++
		return fitStub(i), nil
	})
	if err != nil {
		t.Fatalf("Fit(%q): %v", key, err)
	}
	return got
}

func TestBoundedMemoEvictsLRU(t *testing.T) {
	m := NewBoundedMemo(2, 0)
	calls := 0
	doFit(t, m, "k1", 1, &calls)
	doFit(t, m, "k2", 2, &calls)
	// Touch k1 so k2 becomes the least recently used entry.
	doFit(t, m, "k1", 1, &calls)
	// Inserting k3 must evict k2, not k1.
	doFit(t, m, "k3", 3, &calls)
	if calls != 3 {
		t.Fatalf("computed %d times before eviction checks, want 3", calls)
	}
	doFit(t, m, "k1", 1, &calls)
	if calls != 3 {
		t.Fatalf("k1 recomputed after k3 insertion: was evicted out of LRU order")
	}
	doFit(t, m, "k2", 2, &calls)
	if calls != 4 {
		t.Fatalf("k2 not recomputed: LRU eviction did not remove it (calls=%d)", calls)
	}

	st := m.Stats()
	if st.Evictions != 2 {
		// k2 evicted by k3's insertion, then k3 (now LRU) by k2's re-insertion.
		t.Fatalf("Evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 2 {
		t.Fatalf("Entries = %d, want 2 (bound)", st.Entries)
	}
	if st.FitMisses != 4 || st.FitHits != 2 {
		t.Fatalf("FitMisses/FitHits = %d/%d, want 4/2", st.FitMisses, st.FitHits)
	}
}

func TestBoundedMemoByteCap(t *testing.T) {
	one := memoSize(fitStub(0), nil)
	if one <= 0 {
		t.Fatalf("memoSize of a FitResult = %d, want > 0", one)
	}
	// Room for exactly two entries.
	m := NewBoundedMemo(0, 2*one)
	calls := 0
	doFit(t, m, "k1", 1, &calls)
	doFit(t, m, "k2", 2, &calls)
	st := m.Stats()
	if st.Evictions != 0 || st.Entries != 2 || st.Bytes != 2*one {
		t.Fatalf("before overflow: stats = %+v, want 2 entries, %d bytes, 0 evictions", st, 2*one)
	}
	doFit(t, m, "k3", 3, &calls)
	st = m.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1 after byte-cap overflow", st.Evictions)
	}
	if st.Entries != 2 || st.Bytes > 2*one {
		t.Fatalf("after overflow: %d entries / %d bytes, want 2 entries within %d bytes", st.Entries, st.Bytes, 2*one)
	}
	// k1 was the LRU victim.
	doFit(t, m, "k1", 1, &calls)
	if calls != 4 {
		t.Fatalf("k1 lookup after overflow: calls = %d, want 4 (recompute)", calls)
	}
}

func TestMemoViewCountsSeparately(t *testing.T) {
	shared := NewMemo()
	jobA := shared.View()
	jobB := shared.View()
	calls := 0
	// Job A computes two entries cold.
	doFit(t, jobA, "k1", 1, &calls)
	doFit(t, jobA, "k2", 2, &calls)
	// Job B re-reads both: hits through the shared cache.
	doFit(t, jobB, "k1", 1, &calls)
	doFit(t, jobB, "k2", 2, &calls)
	if calls != 2 {
		t.Fatalf("computed %d times across views, want 2 (shared storage)", calls)
	}

	a, b := jobA.Stats(), jobB.Stats()
	if a.FitMisses != 2 || a.FitHits != 0 {
		t.Fatalf("view A misses/hits = %d/%d, want 2/0", a.FitMisses, a.FitHits)
	}
	if b.FitMisses != 0 || b.FitHits != 2 {
		t.Fatalf("view B misses/hits = %d/%d, want 0/2", b.FitMisses, b.FitHits)
	}
	total := shared.CacheStats()
	if total.FitMisses != 2 || total.FitHits != 2 {
		t.Fatalf("cache-wide misses/hits = %d/%d, want 2/2", total.FitMisses, total.FitHits)
	}
	if a.Entries != 2 || b.Entries != 2 || total.Entries != 2 {
		t.Fatalf("Entries snapshots = %d/%d/%d, want 2 everywhere (shared footprint)", a.Entries, b.Entries, total.Entries)
	}
	if a.Bytes != total.Bytes || b.Bytes != total.Bytes {
		t.Fatalf("Bytes snapshots differ across views: %d/%d/%d", a.Bytes, b.Bytes, total.Bytes)
	}
}

func TestBoundedMemoCachesErrors(t *testing.T) {
	m := NewBoundedMemo(4, 0)
	calls := 0
	boom := errors.New("deterministic failure")
	for i := 0; i < 3; i++ {
		_, err := m.Fit("bad", func() (markov.FitResult, error) {
			calls++
			return markov.FitResult{}, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Fit attempt %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1 (errors cached)", calls)
	}
	st := m.Stats()
	if st.Entries != 1 || st.Bytes != 64 {
		t.Fatalf("cached error footprint = %d entries / %d bytes, want 1 / 64", st.Entries, st.Bytes)
	}
}

func TestBoundedMemoOversizedEntrySurvivesOwnInsertion(t *testing.T) {
	m := NewBoundedMemo(0, 1) // every real entry exceeds the cap
	calls := 0
	doFit(t, m, "big", 1, &calls)
	doFit(t, m, "big", 1, &calls)
	if calls != 1 {
		t.Fatalf("oversized entry recomputed (calls=%d): must survive its own insertion", calls)
	}
	st := m.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want the single oversized entry resident, 0 evictions", st)
	}
	// A second insertion displaces it.
	doFit(t, m, "big2", 2, &calls)
	st = m.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after displacement: %+v, want 1 entry / 1 eviction", st)
	}
}

func TestUnboundedMemoNeverEvicts(t *testing.T) {
	m := NewMemo()
	calls := 0
	for i := 0; i < 64; i++ {
		doFit(t, m, fmt.Sprintf("k%d", i), i, &calls)
	}
	st := m.Stats()
	if st.Evictions != 0 || st.Entries != 64 {
		t.Fatalf("unbounded memo: %+v, want 64 entries, 0 evictions", st)
	}
}

// TestMemoRetryRecomputesStaleCancellation pins the stale-cancellation
// retry: two callers share one memo key, and the first caller's context
// expires while it computes the value. The second caller, joined to the
// in-flight computation with a live context, must get a computed value,
// not the sibling's DeadlineExceeded.
func TestMemoRetryRecomputesStaleCancellation(t *testing.T) {
	m := NewMemo()
	first, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	started, release := make(chan struct{}), make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		_, err := MemoRetry(first, func() ([]mapqn.NetworkMetrics, error) {
			return lookup(m, memoSolve, "k", func() ([]mapqn.NetworkMetrics, error) {
				close(started)
				<-release
				<-first.Done()
				return nil, first.Err()
			})
		})
		firstErr <- err
	}()
	<-started

	type result struct {
		v   []mapqn.NetworkMetrics
		err error
	}
	second := make(chan result, 1)
	go func() {
		v, err := MemoRetry(context.Background(), func() ([]mapqn.NetworkMetrics, error) {
			return lookup(m, memoSolve, "k", func() ([]mapqn.NetworkMetrics, error) {
				return []mapqn.NetworkMetrics{{Throughput: 7}}, nil
			})
		})
		second <- result{v, err}
	}()
	// Release the first computation only once the second caller waits on it.
	for deadline := time.Now().Add(10 * time.Second); m.Stats().SolveHits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second caller never joined the in-flight computation")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := <-firstErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired caller err = %v, want DeadlineExceeded", err)
	}
	got := <-second
	if got.err != nil || len(got.v) != 1 || got.v[0].Throughput != 7 {
		t.Fatalf("live caller = (%v, %v), want the recomputed value", got.v, got.err)
	}
	if st := m.Stats(); st.SolveMisses != 2 || st.SolveHits != 1 {
		t.Fatalf("solve traffic = %d misses / %d hits, want 2 / 1", st.SolveMisses, st.SolveHits)
	}
}
