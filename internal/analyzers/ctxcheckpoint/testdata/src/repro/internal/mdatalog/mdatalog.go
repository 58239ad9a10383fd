// Package mdatalog is a fixture at the compiled datalog solver's package
// path: its exported *Ctx entry point propagates on a queue, and the queue
// loop is where cancellation must be able to land.
package mdatalog

import "context"

type compiled struct{ seeds, queue []int }

// SolveCtx has the real solver's shape: an entry guard, a bounded seeding
// loop, then the propagation loop with a modulo-interval checkpoint.  No
// diagnostics.
func (c *compiled) SolveCtx(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for _, s := range c.seeds {
		c.queue = append(c.queue, s)
	}
	pops := 0
	for len(c.queue) > 0 {
		if pops++; pops%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return pops, err
			}
		}
		c.queue = c.queue[:len(c.queue)-1]
	}
	return pops, nil
}

// PropagateCtx guards before seeding and never looks at ctx again: once the
// queue loop starts, a cancelled request keeps propagating to the fixpoint.
func (c *compiled) PropagateCtx(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for _, s := range c.seeds { // want `no ctx.Err\(\) checkpoint`
		c.queue = append(c.queue, s)
	}
	pops := 0
	for len(c.queue) > 0 {
		pops++
		c.queue = c.queue[:len(c.queue)-1]
	}
	return pops, nil
}
