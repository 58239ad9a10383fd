// Package rewrite is a fixture at the rewritten union's package path: its
// exported *Ctx entry point loops over the disjuncts and hands each kernel
// run a context, and only the request's own context lets cancellation land.
package rewrite

import "context"

type disjunct struct{ answers []int }

// EnumerateCtx stands in for the kernel run: it polls ctx as it works.
func (d *disjunct) EnumerateCtx(ctx context.Context) ([]int, error) {
	return d.answers, ctx.Err()
}

type Union []*disjunct

// EvaluateCtx has the real union's shape: the disjunct loop forwards ctx to
// every kernel run.  No diagnostics.
func (u Union) EvaluateCtx(ctx context.Context) ([]int, error) {
	var out []int
	for _, d := range u {
		ans, err := d.EnumerateCtx(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, ans...)
	}
	return out, nil
}

// EvaluateDetachedCtx hands every kernel run a context no request can cancel:
// a cancelled request runs every disjunct to the end.
func (u Union) EvaluateDetachedCtx(ctx context.Context) ([]int, error) {
	var out []int
	for _, d := range u { // want `no ctx.Err\(\) checkpoint`
		ans, err := d.EnumerateCtx(context.Background())
		if err != nil {
			return nil, err
		}
		out = append(out, ans...)
	}
	return out, nil
}

// EvaluateTodoCtx is EvaluateDetachedCtx with context.TODO().
func (u Union) EvaluateTodoCtx(ctx context.Context) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []int
	for _, d := range u { // want `no ctx.Err\(\) checkpoint`
		ans, _ := d.EnumerateCtx(context.TODO())
		out = append(out, ans...)
	}
	return out, nil
}

// EvaluateDerivedCtx forwards a context derived from ctx, held in a
// variable.  No diagnostics.
func (u Union) EvaluateDerivedCtx(ctx context.Context) ([]int, error) {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var out []int
	for _, d := range u {
		ans, err := d.EnumerateCtx(dctx)
		if err != nil {
			return nil, err
		}
		out = append(out, ans...)
	}
	return out, nil
}
