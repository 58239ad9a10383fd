package bitset

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/race"
)

// onePool pins the test to one P for its duration: sync.Pool keeps the last
// Put in a per-P slot, so a Get on another P may miss it.
func onePool(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPoolWarmAllocs: once a bucket is warm, an Acquire/Release pair
// allocates nothing — no vector and no boxed slice header on either side.
func TestPoolWarmAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	Release(Acquire(1000))
	if got := testing.AllocsPerRun(100, func() { Release(Acquire(1000)) }); got != 0 {
		t.Errorf("Release(Acquire(1000)) allocates %.0f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		a, b := Acquire(5000), Acquire(5000)
		Release(a)
		Release(b)
	}); got != 0 {
		t.Errorf("two vectors in flight allocate %.0f objects, want 0", got)
	}
}

// TestPoolServesShorterLengthInBucket: a vector released at one length
// serves a shorter one of the same power-of-two bucket, exactly sized and
// zeroed.
func TestPoolServesShorterLengthInBucket(t *testing.T) {
	onePool(t)
	a := Acquire(8 * 64) // 8 words: the bucket of capacity 8
	a.SetAll(8 * 64)
	Release(a)
	b := Acquire(5*64 + 1) // 6 words, same bucket
	defer Release(b)
	if len(b) != 6 || cap(b) != 8 {
		t.Fatalf("Acquire(321): len %d cap %d, want 6 and 8", len(b), cap(b))
	}
	if b.Any() {
		t.Fatal("Acquire returned a dirty vector")
	}
	if !race.Enabled && &b[0] != &a[0] {
		t.Error("the released 8-word vector did not serve the 6-word request")
	}
}

// TestReleaseDropsForeignCapacity: a vector whose capacity is not a bucket
// size (made by New rather than Acquire) never enters the pool, so it cannot
// come back from Acquire with the wrong capacity.
func TestReleaseDropsForeignCapacity(t *testing.T) {
	onePool(t)
	v := New(3 * 64) // capacity 3: no bucket
	Release(v)
	b := Acquire(3 * 64)
	defer Release(b)
	if cap(b) != 4 || &b[0] == &v[0] {
		t.Fatalf("Acquire(192) after Release(New(192)): cap %d, reused the foreign vector: %v", cap(b), &b[0] == &v[0])
	}
	Release(nil) // no-op
}

// TestPoolStatsCountHitsAndMisses: the first Acquire of a cold bucket is a
// miss, and the Acquire after its Release a hit.
func TestPoolStatsCountHitsAndMisses(t *testing.T) {
	onePool(t)
	const n = 1 << 22 // 65,536 words
	runtime.GC()      // two collections empty every sync.Pool,
	runtime.GC()      // victim cache included: the bucket is cold
	h0, m0 := PoolStats()
	v := Acquire(n)
	Release(v)
	Release(Acquire(n))
	h1, m1 := PoolStats()
	if h1-h0+m1-m0 != 2 || m1-m0 < 1 || (!race.Enabled && m1-m0 != 1) {
		t.Errorf("two Acquires on a cold bucket: %d hits, %d misses, want 1 and 1", h1-h0, m1-m0)
	}
}

// TestPoolConcurrent has goroutines acquire, fill, check and release vectors
// of several sizes sharing buckets: every vector comes back zeroed and
// exactly sized, and none is handed to two owners at once (a shared vector
// would show another goroutine's pattern).  Run it under -race.
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pattern := uint64(g+1) * 0x0101010101010101
			for i := range 500 {
				n := 64 * (1 + (i*7+g)%40)
				v := Acquire(n)
				if len(v) != WordsFor(n) || v.Any() {
					t.Errorf("Acquire(%d): %d words, dirty %v", n, len(v), v.Any())
				}
				for w := range v {
					v[w] = pattern
				}
				runtime.Gosched()
				for w := range v {
					if v[w] != pattern {
						t.Errorf("vector shared between owners: word %d is %#x, want %#x", w, v[w], pattern)
						break
					}
				}
				Release(v)
			}
		}()
	}
	wg.Wait()
}
