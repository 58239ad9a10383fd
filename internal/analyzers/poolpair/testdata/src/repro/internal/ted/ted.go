// Package ted is a fixture for the unexported DP-scratch pool pair: poolpair
// matches acquire/release by package path, so a fixture package at the real
// import path exercises the within-package pairing.
package ted

func acquire(n int) *[]int32 { s := make([]int32, n); return &s }

func release(s *[]int32) {}

// Kernel has the real kernel's shape — two scratch tables — with an error
// path that releases one and forgets the other.
func Kernel(n int, fail bool) int {
	td := acquire(n)
	fd := acquire(n)
	if fail {
		release(td)
		return -1 // want `return without releasing "fd"`
	}
	out := int((*td)[0] + (*fd)[0])
	release(td)
	release(fd)
	return out
}
