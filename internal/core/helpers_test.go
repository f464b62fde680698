package core

import (
	"context"

	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// phaseInputOf extracts the SSE inputs from a run's final Green's functions.
func phaseInputOf(r *Result) sse.PhaseInput {
	return sse.PhaseInput{GLess: r.GLess, GGtr: r.GGtr, DLess: r.DLess, DGtr: r.DGtr}
}

// gfPhase runs one GF phase on the worker pool, as the Born loop's pool
// executor does, and returns the fresh Green's function tensors and the
// contact observables.
func (s *Simulator) gfPhase(ctx context.Context, sigR, sigL, sigG *tensor.GTensor, piR, piL, piG *tensor.DTensor) (
	gl, gg *tensor.GTensor, dl, dg *tensor.DTensor, o Observables, err error) {
	g := s.newGFState(sigR, sigL, sigG, piR, piL, piG)
	if err := g.runPool(ctx, 0, len(g.jobs)); err != nil {
		return nil, nil, nil, nil, o, err
	}
	return g.gl, g.gg, g.dl, g.dg, g.finish(), nil
}
