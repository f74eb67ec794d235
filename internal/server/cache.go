package server

import (
	"container/list"
	"context"
	"sync"
)

// Cache is an LRU result cache with singleflight deduplication: for each
// canonical request key, a thundering herd of concurrent identical
// requests computes the answer exactly once — one flight runs compute,
// every request for the key joins it — and subsequent requests hit the
// stored value until it ages out of the LRU.
//
// Only successful results are stored; errors propagate to the flight's
// cohort and the next request retries. compute receives a context that
// ends only when every request joined on the key has gone (see group).
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights group

	hits      uint64
	misses    uint64
	evictions uint64
	coalesced uint64
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns a cache holding at most capacity results. capacity <= 0
// disables storage; deduplication of in-flight computations still applies.
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Do returns the cached value for key, or computes it via compute. hit
// reports a cache hit; shared reports that the value came from another
// request's in-flight computation (a dedup coalesce).
func (c *Cache) Do(ctx context.Context, key string, compute func(context.Context) (any, error)) (val any, hit, shared bool, err error) {
	c.mu.Lock()
	if e := c.lookup(key); e != nil {
		c.hits++
		c.mu.Unlock()
		return e.val, true, false, nil
	}
	c.mu.Unlock()

	val, shared, err = c.flights.do(ctx, key, func(fctx context.Context) (any, error) {
		// A flight for key may have resolved between the check above and
		// this one starting: its result is stored, so serve it.
		c.mu.Lock()
		e := c.lookup(key)
		c.mu.Unlock()
		if e != nil {
			return e, nil // unwrapped below, so the caller can count a hit
		}
		v, err := compute(fctx)
		if err == nil {
			// Store before the flight resolves, so a caller re-entering
			// right after its flight completes finds the entry.
			c.store(key, v)
		}
		return v, err
	})
	if e, ok := val.(*cacheEntry); ok {
		val, hit = e.val, true
	}
	c.mu.Lock()
	switch {
	case shared:
		c.coalesced++
	case hit:
		c.hits++
	default:
		c.misses++
	}
	c.mu.Unlock()
	return val, hit, shared, err
}

// lookup returns key's stored entry, marking it most recently used, or nil.
// Callers hold c.mu.
func (c *Cache) lookup(key string) *cacheEntry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// peek returns key's stored value without marking it used, or nil.
func (c *Cache) peek(key string) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).val
	}
	return nil
}

// store inserts a computed value and evicts beyond capacity.
func (c *Cache) store(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		e := c.lru.Remove(back).(*cacheEntry)
		delete(c.entries, e.key)
		c.evictions++
	}
	c.mu.Unlock()
}

// Len returns the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns cumulative hit, miss, eviction and coalesce counts.
func (c *Cache) Stats() (hits, misses, evictions, coalesced uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.coalesced
}
