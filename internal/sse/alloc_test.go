//go:build !race

// The AllocsPerRun counters below measure steady-state heap traffic; the race
// runtime adds its own allocations, so these regressions only hold un-raced.

package sse

import (
	"math/rand"
	"testing"
)

// The SSE steady-state allocation tests pin the arena contract for the hot
// kernels: every per-point matrix transient must come from the workspace
// arena, so the per-call allocation count is a small constant (the output
// tensors plus fixed slice headers), independent of the Nkz·NE·Nqz·Nω inner
// trip count. Before pooling, each variant allocated a fresh Norb×Norb
// matrix per inner-loop iteration — thousands of allocations per call on the
// Mini device.

func TestAllocsSigmaVariantsSteadyState(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(23))
	g := randomAntiHermG(rng, p)
	d := k.PreprocessD(randomD(rng, p))
	for _, tc := range []struct {
		name  string
		run   func()
		bound float64
	}{
		{"OMEN", func() { k.SigmaOMEN(g, d) }, 60},
		{"DaCe", func() { k.SigmaDaCe(g, d) }, 120},
	} {
		tc.run() // warm the arena
		avg := testing.AllocsPerRun(5, tc.run)
		if avg > tc.bound {
			t.Errorf("Sigma%s steady state allocates %.1f/run, want ≤ %.0f (output + headers only)",
				tc.name, avg, tc.bound)
		}
	}
}

func TestAllocsPiVariantsSteadyState(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(29))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	for _, tc := range []struct {
		name  string
		run   func()
		bound float64
	}{
		{"OMEN", func() { k.PiOMEN(gl, gg) }, 60},
		{"DaCe", func() { k.PiDaCe(gl, gg) }, 120},
	} {
		tc.run()
		avg := testing.AllocsPerRun(5, tc.run)
		if avg > tc.bound {
			t.Errorf("Pi%s steady state allocates %.1f/run, want ≤ %.0f (output + headers only)",
				tc.name, avg, tc.bound)
		}
	}
}

// TestAllocsComputePhaseParallelSteadyState pins the shared-output schedule
// of the pool-parallel SSE phase: the tiles share one atom-major layout per
// ≷ and write straight into one output, so a call allocates the outputs,
// the preprocessed D≷, the two layouts and a few headers per tile. The
// bound depends on the worker count only — per-bond U caches or per-tile
// full-size tensors would scale it with NA·NB.
func TestAllocsComputePhaseParallelSteadyState(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(31))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	for _, workers := range []int{2, 4} {
		run := func() { k.ComputePhaseParallel(in, DaCe, workers) }
		run() // warm the arena
		avg := testing.AllocsPerRun(5, run)
		if bound := float64(32 + 8*workers); avg > bound {
			t.Errorf("workers=%d: parallel SSE phase allocates %.1f/run, want ≤ %.0f (outputs, layouts, per-tile headers)",
				workers, avg, bound)
		}
	}
}
