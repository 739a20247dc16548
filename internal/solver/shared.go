package solver

import (
	"slices"
	"sync"
	"sync/atomic"
)

// SharedCache is a concurrent query-result store shared by several
// Solvers — the cross-shard constraint cache of the parallel SDE
// extension. Shards run on independent engines with independent
// expr.Builders, but expression hashes are purely structural (see
// expr.Builder), so a query key computed in one shard identifies the
// same constraint set in every other shard; pin-independent components
// of the shards' path conditions recur across the whole fleet and are
// decided once.
//
// The cache is striped: the well-mixed query key selects one of 64
// independently locked segments, so concurrent shards rarely contend on
// the same mutex. Entries are never evicted — a run's distinct query
// population is bounded by its constraint structure, and the entries
// (a hash slice and a verdict) are cheap relative to the states that
// produced them. The cache holds verdicts only: witnesses never read it.
type SharedCache struct {
	stripes [sharedStripes]sharedStripe

	lookups atomic.Int64
	hits    atomic.Int64
	stores  atomic.Int64
}

// sharedStripes must be a power of two (the stripe index is a mask of
// the query key).
const sharedStripes = 64

type sharedStripe struct {
	mu sync.RWMutex
	m  map[uint64]cacheEntry
}

// NewSharedCache returns an empty cache ready for concurrent use. A
// stripe's map is made by its first store, so a run that stores nothing —
// one whose shards branch on no symbolic data — allocates none.
func NewSharedCache() *SharedCache { return &SharedCache{} }

// SharedCacheStats is a snapshot of the cache's activity counters.
type SharedCacheStats struct {
	Lookups int64 // queries that consulted the cache
	Hits    int64 // lookups answered from the cache
	Stores  int64 // entries inserted
	Entries int64 // current number of cached verdicts
}

// Stats returns a snapshot of the activity counters. Lookups, Hits, and
// Stores are monotone; Entries is the current population.
func (c *SharedCache) Stats() SharedCacheStats {
	s := SharedCacheStats{
		Lookups: c.lookups.Load(),
		Hits:    c.hits.Load(),
		Stores:  c.stores.Load(),
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.RLock()
		s.Entries += int64(len(st.m))
		st.mu.RUnlock()
	}
	return s
}

func (c *SharedCache) stripe(key uint64) *sharedStripe {
	return &c.stripes[key&(sharedStripes-1)]
}

// lookup returns the cached verdict for a query key. The sorted
// constraint hashes guard against key collisions, exactly as in the
// private per-solver cache.
func (c *SharedCache) lookup(key uint64, hashes []uint64) (bool, bool) {
	c.lookups.Add(1)
	st := c.stripe(key)
	st.mu.RLock()
	ent, ok := st.m[key]
	st.mu.RUnlock()
	if !ok || !slices.Equal(ent.hashes, hashes) {
		return false, false
	}
	c.hits.Add(1)
	return ent.sat, true
}

// store publishes a verdict. The hashes are copied so the cache shares no
// mutable structure with the storing solver. An existing entry is kept.
func (c *SharedCache) store(key uint64, hashes []uint64, sat bool) {
	st := c.stripe(key)
	st.mu.Lock()
	if _, ok := st.m[key]; ok {
		st.mu.Unlock()
		return
	}
	if st.m == nil {
		st.m = make(map[uint64]cacheEntry, 64)
	}
	st.m[key] = cacheEntry{hashes: slices.Clone(hashes), sat: sat}
	st.mu.Unlock()
	c.stores.Add(1)
}
