package sse

import (
	"negfsim/internal/pool"
	"negfsim/internal/tensor"
)

// ComputePhaseParallel evaluates the full SSE phase with the DaCe kernels
// parallelized over atom tiles — the shared-memory counterpart of the
// distributed decomposition. The atom-major layout of G^≷ is built once and
// shared; every tile writes its disjoint atom slice of Σ^≷ and Π^≷ straight
// into the one output, so there is no per-tile tensor, copy or reduction,
// and the result is bitwise that of ComputePhase. Only the DaCe formulation
// parallelizes this way (its tiles are exact slices); other variants fall
// back to the serial path. Tiles are scheduled on the persistent worker pool
// rather than freshly spawned goroutines.
func (k *Kernel) ComputePhaseParallel(in PhaseInput, v Variant, workers int) PhaseOutput {
	p := k.Dev.P
	if v != DaCe || workers <= 1 || p.NA < 2*workers {
		return k.ComputePhase(in, v)
	}
	spp := obsSpanPreprocess.Start()
	preLess := k.PreprocessD(in.DLess)
	preGtr := k.PreprocessD(in.DGtr)
	spp.End()
	sps := obsSpanSigma.Start()
	stage1Less, stage1Gtr := atomMajorGEMM(in.GLess.ToAtomMajor()), atomMajorGEMM(in.GGtr.ToAtomMajor())
	sps.End()
	out := PhaseOutput{
		SigmaLess: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		SigmaGtr:  tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		PiLess:    tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		PiGtr:     tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
	}
	tasks := make([]pool.Task, workers)
	for w := range tasks {
		aLo, aHi := w*p.NA/workers, (w+1)*p.NA/workers
		tasks[w] = func() {
			sps := obsSpanSigma.Start()
			k.sigmaDaCeTileInto(out.SigmaLess, stage1Less, preLess, 0, p.NE, aLo, aHi)
			k.sigmaDaCeTileInto(out.SigmaGtr, stage1Gtr, preGtr, 0, p.NE, aLo, aHi)
			sps.End()
			spq := obsSpanPi.Start()
			k.piDaCeTileInto(out.PiLess, out.PiGtr, in.GLess, in.GGtr, 0, p.NE, aLo, aHi)
			spq.End()
		}
	}
	pool.Do(tasks...)
	return out
}
