package main

import "sort"

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule, 0 for an empty sample.  xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(float64(len(xs))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty sample.  xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// perWindow applies f to every measurement window.
func perWindow(windows [][]sample, f func([]sample) float64) []float64 {
	vals := make([]float64, len(windows))
	for i, w := range windows {
		vals[i] = f(w)
	}
	return vals
}

// maxStolen is the largest share of the machine's CPU time the hypervisor may
// have taken away during a window (or a cold start) for its timings to count.
// On the reference VM a window with under 1% stolen ran at full speed and one
// with 40% stolen at a quarter of it; the share is in /proc/stat.
const maxStolen = 0.01

// fewestQuiet is how many intervals a run reports from at the least: when
// fewer were quiet, the ones with the least CPU time stolen stand in.
const fewestQuiet = 3

// quiet returns the indices of the intervals whose stolen share is at most
// maxStolen, or the fewestQuiet least disturbed when fewer qualify.
func quiet(stolen []float64) []int {
	order := make([]int, len(stolen))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return stolen[order[a]] < stolen[order[b]] })
	n := 0
	for n < len(order) && stolen[order[n]] <= maxStolen {
		n++
	}
	if n < fewestQuiet {
		n = min(fewestQuiet, len(order))
	}
	chosen := order[:n]
	sort.Ints(chosen)
	return chosen
}

// pick returns the elements of xs at the chosen indices.
func pick[T any](xs []T, chosen []int) []T {
	out := make([]T, len(chosen))
	for i, c := range chosen {
		out[i] = xs[c]
	}
	return out
}

// typical returns the mean over n observations of the median of the group
// each belongs to: what a typical request of a mixed workload shows, without
// the mean's sensitivity to a slow outlier or the plain median's to the mix.
func typical(n int, group func(i int) int, value func(i int) float64) float64 {
	byGroup := map[int][]float64{}
	for i := 0; i < n; i++ {
		byGroup[group(i)] = append(byGroup[group(i)], value(i))
	}
	var sum float64
	for _, xs := range byGroup {
		sum += median(xs) * float64(len(xs))
	}
	return ratio(sum, float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
