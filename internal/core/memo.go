package core

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"sync"

	"repro/internal/inference"
	"repro/internal/markov"
)

// Memo is the engine's stage cache. Scenario cells frequently share
// work: a grid that varies only population re-uses every tier's
// characterize→fit result, and cells with identical models re-use whole
// warm-started solver sweeps. Memo deduplicates those stages across
// concurrently running cells with single-flight semantics: for each
// distinct key the compute function runs exactly once, later callers
// (including concurrent ones) block until the first completes and then
// share its result. All stage computations are deterministic pure
// functions of their key, so a memo hit is bit-identical to a cold
// recomputation — the engine's correctness invariant, pinned by tests.
//
// A Memo is a handle onto a cache that may be shared by several
// handles (see View): each handle keeps its own traffic counters while
// the storage, the single-flight map, and the LRU bound are common.
// This is how a long-running service gives every job its own hit/miss
// accounting over one process-lifetime cache.
//
// Cached values are shared across reports and must be treated as
// immutable by callers.
type Memo struct {
	c     *memoCache
	local *MemoStats // this handle's counters; guarded by c.mu
}

// memoCache is the storage shared by every view of one cache: the
// single-flight entry map, the LRU list of completed entries, the size
// bounds, and the cache-wide counters.
type memoCache struct {
	mu         sync.Mutex
	entries    map[string]*memoEntry
	lru        *list.List // completed entries, most recently used at front
	maxEntries int        // 0 = unbounded
	maxBytes   int64      // 0 = unbounded
	bytes      int64      // total estimated size of completed entries
	global     MemoStats
}

// Memo stage families, used as key prefixes and stat buckets.
const (
	memoChar  = "char"  // inference.Characterize per sampled tier spec
	memoFit   = "fit"   // markov.FitThreePoint per characterization
	memoSolve = "solve" // solver-ladder sweep per (solver kind, model, populations, options)
)

type memoEntry struct {
	full string        // family-prefixed key, for eviction bookkeeping
	done chan struct{} // closed when val/err are set
	val  any
	err  error
	size int64         // estimated footprint, counted while resident
	elem *list.Element // LRU position; nil while in flight or evicted
}

// MemoStats counts cache traffic per stage family. Misses are distinct
// computations actually performed; hits are lookups served from a
// completed or in-flight computation. For an unbounded suite-local memo
// the counts depend only on the suite's cell set, not on worker
// scheduling. Evictions counts completed entries dropped by the LRU
// bound (attributed to the handle whose insertion forced them out);
// Entries and Bytes snapshot the shared cache's resident footprint at
// Stats() time.
type MemoStats struct {
	CharHits    int64 `json:"char_hits"`
	CharMisses  int64 `json:"char_misses"`
	FitHits     int64 `json:"fit_hits"`
	FitMisses   int64 `json:"fit_misses"`
	SolveHits   int64 `json:"solve_hits"`
	SolveMisses int64 `json:"solve_misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// Hits sums the hit counters across stage families.
func (s MemoStats) Hits() int64 { return s.CharHits + s.FitHits + s.SolveHits }

// Misses sums the miss counters across stage families.
func (s MemoStats) Misses() int64 { return s.CharMisses + s.FitMisses + s.SolveMisses }

// bump counts one lookup into the family's hit or miss bucket.
func (s *MemoStats) bump(family string, hit bool) {
	switch {
	case family == memoChar && hit:
		s.CharHits++
	case family == memoChar:
		s.CharMisses++
	case family == memoFit && hit:
		s.FitHits++
	case family == memoFit:
		s.FitMisses++
	case family == memoSolve && hit:
		s.SolveHits++
	case family == memoSolve:
		s.SolveMisses++
	}
}

// NewMemo returns an unbounded stage cache — the right choice for one
// suite run, whose distinct stages are bounded by the grid itself.
func NewMemo() *Memo { return newMemo(0, 0) }

// NewBoundedMemo returns a stage cache bounded to at most maxEntries
// completed entries and maxBytes total estimated size (0 disables
// either bound). When an insertion pushes the cache over a bound, the
// least recently used completed entries are evicted (in-flight
// computations are never evicted; the newest entry survives even when
// it alone exceeds maxBytes, so the byte bound is soft by one entry).
// This is the process-lifetime configuration: a long-running service
// shares one bounded memo across every job it executes, so repeat
// what-if queries are served from cache without the cache growing
// without bound.
func NewBoundedMemo(maxEntries int, maxBytes int64) *Memo {
	if maxEntries < 0 {
		maxEntries = 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return newMemo(maxEntries, maxBytes)
}

func newMemo(maxEntries int, maxBytes int64) *Memo {
	c := &memoCache{
		entries:    make(map[string]*memoEntry),
		lru:        list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
	return &Memo{c: c, local: &MemoStats{}}
}

// View returns a new handle onto the same cache with fresh traffic
// counters: lookups through the view hit the shared storage (and count
// into the cache-wide totals) while the view's Stats() reports only its
// own traffic. A service gives each job a view of its process-lifetime
// memo so per-job hit counters are meaningful.
func (m *Memo) View() *Memo {
	if m == nil {
		return nil
	}
	return &Memo{c: m.c, local: &MemoStats{}}
}

// Stats returns a snapshot of this handle's counters plus the shared
// cache's current footprint (Entries, Bytes).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	st := *m.local
	st.Entries = int64(m.c.lru.Len())
	st.Bytes = m.c.bytes
	return st
}

// CacheStats returns the cache-wide counters accumulated across every
// handle sharing this memo, plus the current footprint — the numbers a
// service exports on its metrics endpoint.
func (m *Memo) CacheStats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	st := m.c.global
	st.Entries = int64(m.c.lru.Len())
	st.Bytes = m.c.bytes
	return st
}

// do returns the cached value for (family, key), computing it via
// compute on first use. Concurrent callers of the same key block until
// the single in-flight computation finishes. Deterministic errors are
// cached like values — the computations are pure functions of their key,
// so retrying cannot help — but cancellation-class errors
// (context.Canceled, context.DeadlineExceeded) are dropped instead of
// cached: they describe the caller's context, not the key, and caching
// one would permanently fail every later cell sharing the key. A
// panicking compute is likewise dropped (waiters get an error, the
// panic propagates to the computing goroutine's recovery layer).
func (m *Memo) do(family, key string, compute func() (any, error)) (any, error) {
	c := m.c
	full := family + "\x00" + key
	c.mu.Lock()
	if e, ok := c.entries[full]; ok {
		c.global.bump(family, true)
		m.local.bump(family, true)
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &memoEntry{full: full, done: make(chan struct{})}
	c.entries[full] = e
	c.global.bump(family, false)
	m.local.bump(family, false)
	c.mu.Unlock()

	completed := false
	defer func() {
		if !completed { // compute panicked
			c.drop(e)
			e.err = errors.New("core: memoized computation panicked")
			close(e.done)
		}
	}()
	e.val, e.err = compute()
	completed = true
	if e.err != nil && IsCancellation(e.err) {
		c.drop(e)
	} else {
		c.admit(m.local, e)
	}
	close(e.done)
	return e.val, e.err
}

// drop removes an entry that must not stay cached (cancellation or
// panic) so the next lookup recomputes it.
func (c *memoCache) drop(e *memoEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.full] == e {
		delete(c.entries, e.full)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		c.bytes -= e.size
		e.elem = nil
	}
}

// admit moves a completed entry into the LRU and enforces the bounds,
// evicting least-recently-used entries while over either cap. The
// entry just admitted is never evicted, so an oversized value still
// serves its in-flight waiters and its own future hits until something
// newer displaces it.
func (c *memoCache) admit(local *MemoStats, e *memoEntry) {
	e.size = memoSize(e.val, e.err)
	c.mu.Lock()
	defer c.mu.Unlock()
	e.elem = c.lru.PushFront(e)
	c.bytes += e.size
	for c.lru.Len() > 1 && c.overBound() {
		back := c.lru.Back()
		victim := back.Value.(*memoEntry)
		c.lru.Remove(back)
		victim.elem = nil
		c.bytes -= victim.size
		delete(c.entries, victim.full)
		c.global.Evictions++
		local.Evictions++
	}
}

// overBound reports whether the cache currently exceeds either cap.
func (c *memoCache) overBound() bool {
	if c.maxEntries > 0 && c.lru.Len() > c.maxEntries {
		return true
	}
	if c.maxBytes > 0 && c.bytes > c.maxBytes {
		return true
	}
	return false
}

// memoSize estimates an entry's footprint as the length of its JSON
// encoding — every memoized value is a JSON-serializable report type,
// so this tracks the real payload closely enough for a byte bound.
// Cached errors and unencodable values get small fixed estimates.
func memoSize(val any, err error) int64 {
	if err != nil {
		return 64
	}
	b, merr := json.Marshal(val)
	if merr != nil {
		return 256
	}
	return int64(len(b))
}

// lookup returns the value memoized under (family, key), computing it
// via compute on first use. A nil memo computes directly.
func lookup[T any](m *Memo, family, key string, compute func() (T, error)) (T, error) {
	if m == nil {
		return compute()
	}
	v, err := m.do(family, key, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// MemoRetry runs a memoized stage call, retrying it once when it
// returns a stale cancellation: a concurrent caller sharing the memo key
// may have had its own context expire mid-compute, failing every waiter
// with an error that describes the sibling's context, not ours. The
// memo evicts cancellation-class results, so the retry recomputes under
// the caller's own context.
func MemoRetry[T any](ctx context.Context, call func() (T, error)) (T, error) {
	v, err := call()
	if err != nil && IsCancellation(err) && ctx.Err() == nil {
		return call()
	}
	return v, err
}

// Characterize memoizes the Section 4.1 estimation pipeline for one
// sampled tier spec. A nil memo computes directly.
func (m *Memo) Characterize(key string, compute func() (inference.Characterization, error)) (inference.Characterization, error) {
	return lookup(m, memoChar, key, compute)
}

// Fit memoizes one tier's MAP(2) fit. A nil memo computes directly.
func (m *Memo) Fit(key string, compute func() (markov.FitResult, error)) (markov.FitResult, error) {
	return lookup(m, memoFit, key, compute)
}
