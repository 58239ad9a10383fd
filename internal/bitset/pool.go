package bitset

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The package-level pool recycles the scratch vectors the evaluators burn
// through (one or two per axis step).  It has the shape of package ted's DP
// scratch pool: one sync.Pool per power-of-two word capacity, so a 10-word
// vector is never handed to a caller needing 10000 words, and a vector
// released at one length serves any length of its bucket.  The buckets are a
// fixed array — no lock, no map — and traffic in *Bits: Release parks the
// slice header in a holder drawn from a second pool of empty holders, and
// Acquire returns the emptied holder there, so neither Get nor Put boxes a
// slice header and a warm Acquire/Release pair allocates nothing.
const maxBucket = 24 // vectors up to 2^24 words (128 MiB) are pooled

var pool struct {
	buckets [maxBucket + 1]sync.Pool // *Bits of capacity 1<<i words
	holders sync.Pool                // empty *Bits
	hits    atomic.Int64
	misses  atomic.Int64
	// released counts the Release calls that took back what an Acquire
	// handed out: by the same bucket rule, a vector of a bucket's capacity
	// or one too large for any bucket.
	released atomic.Int64
}

// Outstanding returns the vectors acquired and not yet released.  The tests
// of every package that takes from the pool require it to be back at zero
// when they are done.
func Outstanding() int64 {
	return pool.hits.Load() + pool.misses.Load() - pool.released.Load()
}

// PoolStats reports how often Acquire was served from the pool (hit) versus
// falling through to a fresh allocation (miss).  Exposed via treeq -timing
// and the service /statusz page.
func PoolStats() (hits, misses int64) {
	return pool.hits.Load(), pool.misses.Load()
}

// bucketFor returns the bucket whose capacity, 1<<bucket words, is the
// smallest power of two holding words.
func bucketFor(words int) int {
	if words <= 1 {
		return 0
	}
	return bits.Len(uint(words - 1))
}

// Acquire returns a zeroed vector with capacity for n bits, reusing a
// released one when available.  The caller owns the vector until Release.
func Acquire(n int) Bits {
	words := WordsFor(n)
	b := bucketFor(words)
	if b > maxBucket {
		pool.misses.Add(1)
		return make(Bits, words)
	}
	if h, _ := pool.buckets[b].Get().(*Bits); h != nil {
		pool.hits.Add(1)
		v := (*h)[:words]
		*h = nil
		pool.holders.Put(h)
		clear(v)
		return v
	}
	pool.misses.Add(1)
	return make(Bits, words, 1<<b)
}

// Release returns b to the pool.  The caller must not use b afterwards.
// Only a capacity that is a bucket size is kept: nil is a no-op, and so is a
// vector made elsewhere with any other capacity (New(3*64), say).
func Release(b Bits) {
	c := cap(b)
	if c == 0 {
		return
	}
	i := bucketFor(c)
	if i <= maxBucket && 1<<i != c {
		return // not a vector Acquire hands out
	}
	pool.released.Add(1)
	if i > maxBucket {
		return
	}
	h, _ := pool.holders.Get().(*Bits)
	if h == nil {
		h = new(Bits)
	}
	*h = b
	pool.buckets[i].Put(h)
}
