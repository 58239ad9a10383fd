// Package hornsat is a fixture at a solver package path: ctxcheckpoint only
// binds the packages that promise checkpoint-grade cancellation.
package hornsat

import "context"

// SolveCtx has the real solver's shape: an entry guard plus a
// modulo-interval checkpoint in the main loop.  No diagnostics.
func SolveCtx(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if i%1024 == 1023 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildAndSolveCtx runs bounded setup loops and then delegates the dominant
// work by forwarding ctx.  No diagnostics.
func BuildAndSolveCtx(ctx context.Context, n int) error {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return SolveCtx(ctx, total)
}

// EnumerateCtx keeps its checkpoint inside the recursion closure, like the
// backtracking solvers.  No diagnostics.
func EnumerateCtx(ctx context.Context, n int) int {
	count := 0
	var rec func(d int)
	rec = func(d int) {
		if ctx.Err() != nil {
			return
		}
		count++
	}
	for i := 0; i < n; i++ {
		rec(i)
	}
	return count
}

// DriftCtx only guards at entry: after the guard passes, cancellation can
// never interrupt the loop.
func DriftCtx(ctx context.Context, n int) int {
	if err := ctx.Err(); err != nil {
		return -1
	}
	total := 0
	for i := 0; i < n; i++ { // want `no ctx.Err\(\) checkpoint`
		total += i
	}
	return total
}

// RunawayCtx accepts a context and ignores it entirely.
func RunawayCtx(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ { // want `no ctx.Err\(\) checkpoint`
		total += total%7 + i
	}
	return total
}

// image is one bounded pass of work that takes no context, like an axis
// image over a rank set.
func image(n int) int {
	t := 0
	for i := 0; i < n; i++ {
		t += i
	}
	return t
}

// ReduceCtx has the interval-join reducer's shape: a loop whose only work is
// a callee that takes no ctx, polled once per iteration.  No diagnostics.
func ReduceCtx(ctx context.Context, edges, n int) (int, error) {
	visits := 0
	for e := 0; e < edges; e++ {
		visits += image(n)
		if err := ctx.Err(); err != nil {
			return visits, err
		}
	}
	return visits, nil
}

// ReduceBlindCtx drops the poll: the callee cannot see ctx, so a solver loop
// whose only work is such a callee still needs one per iteration.
func ReduceBlindCtx(ctx context.Context, edges, n int) int {
	if ctx.Err() != nil {
		return -1
	}
	visits := 0
	for e := 0; e < edges; e++ { // want `no ctx.Err\(\) checkpoint`
		visits += image(n)
	}
	return visits
}

// helperCtx is unexported: the contract binds only the exported entry
// points.  No diagnostics.
func helperCtx(ctx context.Context, n int) int {
	t := 0
	for i := 0; i < n; i++ {
		t += i
	}
	return t
}

// NoLoopCtx does one pass of work: nothing for cancellation to interrupt.
// No diagnostics.
func NoLoopCtx(ctx context.Context, n int) int {
	return n * 2
}
