package obsv

import (
	"repro/internal/bitset"
	"repro/internal/ted"
)

// PoolCounters is a snapshot of the process-wide hot-path allocation pools.
type PoolCounters struct {
	// BitsetPoolHits / BitsetPoolMisses count bitset.Acquire calls served
	// from the node-vector pool versus falling through to a fresh allocation.
	BitsetPoolHits   int64
	BitsetPoolMisses int64
	// RelstoreSideHits / RelstoreSideMisses are always 0: the relstore
	// merge join allocates its sorted copies and keeps no pool.
	//
	// Deprecated: kept for callers that still read them.
	RelstoreSideHits, RelstoreSideMisses int64
	// TedDPHits / TedDPMisses count the tree-edit-distance DP scratch pool
	// feeding the similarity route's kernel calls.
	TedDPHits   int64
	TedDPMisses int64
}

// Pools snapshots the process-wide pools.
func Pools() PoolCounters {
	bh, bm := bitset.PoolStats()
	th, tm := ted.PoolStats()
	return PoolCounters{
		BitsetPoolHits:   bh,
		BitsetPoolMisses: bm,
		TedDPHits:        th,
		TedDPMisses:      tm,
	}
}
