// Package lru provides a small size-capped least-recently-used cache: the
// corpus query service caps its compiled-plan cache with it (and walks the
// cached plans through Each to count what an update carried across).
//
// A Cache is NOT safe for concurrent use; its caller guards it with its own
// lock (the service already holds a mutex around every access, so embedding
// another one here would only double the locking).
package lru

import "container/list"

// Cache is an LRU map from K to V holding at most Cap entries.  A Cap of 0
// (or negative) means unbounded: entries are never evicted, which keeps the
// zero-ish configuration identical to a plain map.
type Cache[K comparable, V any] struct {
	cap       int
	ll        *list.List // front = most recently used
	items     map[K]*list.Element
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache holding at most cap entries (0 = unbounded).
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{cap: cap, ll: list.New(), items: map[K]*list.Element{}}
}

// Cap returns the configured capacity (0 = unbounded).
func (c *Cache[K, V]) Cap() int { return c.cap }

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Evictions returns the number of entries evicted to respect the cap.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

// Get returns the value cached under key and marks it most recently used.
// On an unbounded cache nothing is ever evicted, so recency is not tracked
// and Get is a pure read — callers guarding the cache with an RWMutex may
// then serve hits under the read lock.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		if c.cap > 0 {
			c.ll.MoveToFront(el)
		}
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts (or replaces) the value under key as most recently used, then
// evicts least-recently-used entries until the cap is respected.
func (c *Cache[K, V]) Add(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.cap > 0 && len(c.items) > c.cap {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Each calls fn on every cached entry, from most to least recently used,
// stopping early if fn returns false.  Iteration is read-only: it does not
// touch recency, and fn must not mutate the cache.
func (c *Cache[K, V]) Each(fn func(key K, val V) bool) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		if !fn(e.key, e.val) {
			return
		}
	}
}
