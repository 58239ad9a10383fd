package ted

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The DP scratch pool has the bitset pool's shape: a fixed array of
// power-of-two size buckets, one sync.Pool per bucket holding pointers so
// that nothing boxes, and process-wide hit/miss counters surfaced through
// obsv.PoolCounters.  The kernel runs once per surviving candidate,
// so without pooling the td/fd matrices would dominate the allocation
// profile of every similarity query.
const maxBucket = 24 // slices up to 2^24 int32s (64 MiB) are pooled

var scratch struct {
	buckets [maxBucket + 1]sync.Pool
	hits    atomic.Int64
	misses  atomic.Int64
}

func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// acquire returns a pooled []int32 of length n.  Contents are arbitrary: the
// DP overwrites every cell it reads.  The pool traffics in *[]int32 so that
// neither Get nor Put boxes a slice header.
func acquire(n int) *[]int32 {
	b := bucketFor(n)
	if b > maxBucket {
		scratch.misses.Add(1)
		s := make([]int32, n)
		return &s
	}
	if v := scratch.buckets[b].Get(); v != nil {
		scratch.hits.Add(1)
		s := v.(*[]int32)
		*s = (*s)[:n]
		return s
	}
	scratch.misses.Add(1)
	s := make([]int32, n, 1<<b)
	return &s
}

// release returns a slice obtained from acquire to its bucket.
func release(s *[]int32) {
	b := bucketFor(cap(*s))
	if b > maxBucket || 1<<b != cap(*s) {
		return
	}
	scratch.buckets[b].Put(s)
}

// PoolStats returns the cumulative hit/miss counters of the DP scratch pool.
func PoolStats() (hits, misses int64) {
	return scratch.hits.Load(), scratch.misses.Load()
}
