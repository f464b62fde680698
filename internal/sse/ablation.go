package sse

import (
	"negfsim/internal/cmat"
	"negfsim/internal/tensor"
)

// SigmaDaCeNoLayout is the ablation of the Fig. 10(c) data-layout
// transformation: identical algorithm to SigmaDaCe — map fission,
// redundancy removal, fused ω-window accumulation — but the ∇H·G^≷ stage
// reads G^≷ in its original (kz, E)-major layout, performing Nkz·NE small
// Norb³ multiplications per (bond, direction) instead of one fused
// (Nkz·NE·Norb) × Norb × Norb GEMM. Same values, same flop count, worse
// locality and call granularity — the quantity the ablation benchmark
// isolates.
func (k *Kernel) SigmaDaCeNoLayout(g *tensor.GTensor, d *PreD) *tensor.GTensor {
	p := k.Dev.P
	no := p.Norb
	sigma := tensor.NewGTensor(p.Nkz, p.NE, p.NA, no)
	var src, dst cmat.Dense // reusable view headers
	// Stage 1 WITHOUT the layout transformation: one small product per
	// (kz, E) point, strided reads from the 5-D tensor.
	perPoint := func(out, dH *cmat.Dense, f int) {
		for kz := 0; kz < p.Nkz; kz++ {
			for e := 0; e < p.NE; e++ {
				row := (kz*p.NE + e) * no
				cmat.ViewInto(&dst, no, no, out.Data[row*no:(row+no)*no])
				g.BlockInto(&src, kz, e, f)
				src.MulInto(&dst, dH)
			}
		}
	}
	k.sigmaDaCeTileInto(sigma, perPoint, d, 0, p.NE, 0, p.NA)
	return sigma
}
