package lru

import "testing"

func TestCapAndEviction(t *testing.T) {
	c := New[int, string](2)
	c.Add(1, "a")
	c.Add(2, "b")
	if _, ok := c.Get(1); !ok { // 1 becomes most recently used
		t.Fatal("1 should be cached")
	}
	c.Add(3, "c") // evicts 2, the LRU entry
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("1 was recently used and must survive")
	}
	if _, ok := c.Get(3); !ok {
		t.Error("3 was just added and must survive")
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len=%d evictions=%d, want 2 and 1", c.Len(), c.Evictions())
	}
}

func TestUnbounded(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 1000; i++ {
		c.Add(i, i)
	}
	if c.Len() != 1000 || c.Evictions() != 0 {
		t.Errorf("unbounded cache evicted: len=%d evictions=%d", c.Len(), c.Evictions())
	}
}

func TestReplaceAndRemove(t *testing.T) {
	c := New[string, int](4)
	c.Add("x", 1)
	c.Add("x", 2)
	if v, _ := c.Get("x"); v != 2 {
		t.Errorf("replace: got %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Errorf("replace should not grow the cache: len=%d", c.Len())
	}
	if c.Evictions() != 0 {
		t.Errorf("a replace must not count as an eviction: %d", c.Evictions())
	}
}

func TestEach(t *testing.T) {
	c := New[int, string](4)
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c")
	c.Get(1) // 1 becomes most recently used

	var keys []int
	c.Each(func(k int, v string) bool {
		keys = append(keys, k)
		return true
	})
	// Most-to-least recently used: 1 (just touched), then 3, then 2.
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 2 {
		t.Errorf("Each order = %v, want [1 3 2]", keys)
	}

	// Early stop.
	n := 0
	c.Each(func(int, string) bool { n++; return false })
	if n != 1 {
		t.Errorf("Each visited %d entries after false, want 1", n)
	}

	// Iteration must not disturb recency: adding a 5th entry still evicts 2.
	c.Add(4, "d")
	c.Add(5, "e")
	if _, ok := c.Get(2); ok {
		t.Error("Each disturbed recency: 2 should have been the LRU victim")
	}
}
