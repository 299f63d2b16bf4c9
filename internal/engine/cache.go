package engine

import "sync"

// The coupling cache memoizes scalar results of pure, expensive
// geometry computations (Neumann mutual-inductance integrals, loop
// self-inductances) under a 128-bit key of their full input. It is
// sharded to keep lock contention away from the worker pool's fan-outs.
const (
	cacheShards = 64
	// maxPerShard bounds memory: when a shard fills up it is dropped
	// wholesale (epoch eviction). 1<<12 entries/shard ≈ 262k entries
	// total, ≈ 10 MB of live heap — above the working set of any design
	// in the repository (the 10k-segment board's 254k hierarchical pairs
	// fit on average; an explore or serve run touches ≈ 5k keys). A run
	// that streams fresh geometry (every generated board unique) only
	// ever misses, so a larger cap would only grow its heap.
	maxPerShard = 1 << 12
)

type cacheShard struct {
	mu sync.Mutex
	m  map[Key]float64
}

var cache [cacheShards]*cacheShard

// cacheOn is the opt-out switch (see SetCacheEnabled). Guarded by
// cacheMu together with structural resets.
var (
	cacheMu sync.Mutex
	cacheOn = true
)

func init() {
	for i := range cache {
		cache[i] = &cacheShard{m: make(map[Key]float64)}
	}
}

// SetCacheEnabled turns the memoization cache on or off (the opt-out for
// callers that stream unique geometries and would only pay the hashing).
// Disabling also drops the cached entries. Returns the previous setting.
func SetCacheEnabled(on bool) bool {
	cacheMu.Lock()
	old := cacheOn
	cacheOn = on
	cacheMu.Unlock()
	if !on {
		ResetCache()
	}
	return old
}

// CacheEnabled reports whether memoization is active.
func CacheEnabled() bool {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return cacheOn
}

// ResetCache drops every cached entry (the counters are part of Stats
// and reset separately).
func ResetCache() {
	for _, s := range cache {
		s.mu.Lock()
		s.m = make(map[Key]float64)
		s.mu.Unlock()
	}
}

// Memo returns the cached value for key, computing and storing it via
// miss on first use. miss runs outside the shard lock, so two goroutines
// racing on the same cold key may both compute it — they store the same
// value (miss must be pure), which keeps results deterministic while
// never holding a lock across an expensive integral.
func Memo(key Key, miss func() float64) float64 {
	if !CacheEnabled() {
		return miss()
	}
	s := cache[key[0]%cacheShards]
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		statCacheHit()
		return v
	}
	statCacheMiss()
	v = miss()
	s.mu.Lock()
	if len(s.m) >= maxPerShard {
		s.m = make(map[Key]float64)
	}
	s.m[key] = v
	s.mu.Unlock()
	return v
}
