package sse

import (
	"negfsim/internal/cmat"
	"negfsim/internal/tensor"
)

// SigmaReference evaluates Eq. (3) with the naive dataflow of Fig. 8: a map
// over the full 8-D space [kz, E, qz, ω, i, j, a, b] in which both
// temporaries ∇H·G^≷ and ∇H·D^≷ are recomputed at every point. This is the
// SDFG produced directly from the Python source, before any transformation.
func (k *Kernel) SigmaReference(g *tensor.GTensor, d *PreD) *tensor.GTensor {
	p := k.Dev.P
	pref := k.sigmaPref()
	sigma := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for qz := 0; qz < p.Nqz; qz++ {
				for w := 0; w < p.Nw; w++ {
					e2 := e - p.PhononShift(w)
					if e2 < 0 {
						continue
					}
					k2 := wrapK(kz, qz, p.Nkz)
					for i := 0; i < p.N3D; i++ {
						for j := 0; j < p.N3D; j++ {
							for a := 0; a < p.NA; a++ {
								for b := 0; b < p.NB; b++ {
									f := k.Dev.Neigh[a][b]
									if f < 0 {
										continue
									}
									dHG := g.Block(k2, e2, f).Mul(k.dH[a][b][i])
									dHD := k.dH[a][b][j].Scale(d.At(qz, w, a, b, i, j))
									sigma.Block(kz, e, a).AddScaledInPlace(pref, dHG.Mul(dHD))
								}
							}
						}
					}
				}
			}
		}
	}
	return sigma
}

// SigmaOMEN evaluates Eq. (3) with the structure of the original C++ OMEN
// code: the bond loop outermost (as imposed by the three-level MPI
// decomposition), ∇H·G^≷ hoisted out of the innermost j loop, but still
// recomputed for every (qz, ω) pair — the redundancy the data-centric view
// exposes and removes.
//
// The ∇H·G^≷ recomputation is kept (it is what this variant demonstrates),
// but the many independent Norb×Norb products of one (bond, kz, E) point are
// dispatched as ONE batch over the worker pool, and every transient comes
// from the workspace arena. The accumulation runs in the original
// (qz, ω, i, j) order, so the values are bit-for-bit unchanged.
func (k *Kernel) SigmaOMEN(g *tensor.GTensor, d *PreD) *tensor.GTensor {
	p := k.Dev.P
	pref := k.sigmaPref()
	sigma := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	no := p.Norb
	nBatch := p.Nqz * p.Nw * p.N3D
	dHG := make([]*cmat.Dense, nBatch)
	for i := range dHG {
		dHG[i] = cmat.GetDense(no, no)
	}
	triples := make([]cmat.Triple, 0, nBatch)
	// gviews holds one block-view header per (qz, ω) pair of a point; the
	// headers are rebound every point, so the loop allocates nothing.
	gviews := make([]cmat.Dense, p.Nqz*p.Nw)
	var out cmat.Dense
	dHD := cmat.GetDense(no, no)
	t := cmat.GetDense(no, no)
	for a := 0; a < p.NA; a++ {
		for b := 0; b < p.NB; b++ {
			f := k.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			for kz := 0; kz < p.Nkz; kz++ {
				for e := 0; e < p.NE; e++ {
					sigma.BlockInto(&out, kz, e, a)
					// Stage 1: every (qz, ω, i) product ∇iH·G^≷ of this point
					// is independent — one batched dispatch.
					triples = triples[:0]
					nv := 0
					for qz := 0; qz < p.Nqz; qz++ {
						k2 := wrapK(kz, qz, p.Nkz)
						for w := 0; w < p.Nw; w++ {
							e2 := e - p.PhononShift(w)
							if e2 < 0 {
								continue
							}
							gblk := &gviews[nv]
							nv++
							g.BlockInto(gblk, k2, e2, f)
							for i := 0; i < p.N3D; i++ {
								o := dHG[len(triples)]
								o.Zero()
								triples = append(triples, cmat.Triple{Out: o, A: gblk, B: k.dH[a][b][i]})
							}
						}
					}
					cmat.BatchMulAddInto(triples)
					// Stage 2: the j reduction, in the original order.
					idx := 0
					for qz := 0; qz < p.Nqz; qz++ {
						for w := 0; w < p.Nw; w++ {
							e2 := e - p.PhononShift(w)
							if e2 < 0 {
								continue
							}
							for i := 0; i < p.N3D; i++ {
								hg := dHG[idx]
								idx++
								for j := 0; j < p.N3D; j++ {
									dHD.CopyFrom(k.dH[a][b][j])
									dHD.ScaleInPlace(d.At(qz, w, a, b, i, j))
									hg.MulInto(t, dHD)
									out.AddScaledInPlace(pref, t)
								}
							}
						}
					}
				}
			}
		}
	}
	cmat.PutAll(dHG...)
	cmat.PutAll(dHD, t)
	return sigma
}

// SigmaDaCe evaluates Eq. (3) with the data-centric transformed kernel of
// Figs. 9–12:
//
//  1. Map fission splits the computation into the ∇H·G^≷ stage, the ∇H·D^≷
//     stage and the accumulation stage (Fig. 9).
//  2. Redundancy removal: ∇H·G^≷ is independent of (qz, ω) and computed
//     once per (a, b, i) over the whole (kz, E) grid (Fig. 10b).
//  3. Data-layout transformation: G^≷ is re-laid-out atom-major so that
//     stage is ONE (Nkz·NE·Norb) × Norb × Norb GEMM (Fig. 10c–d).
//  4. The j reduction is folded into the ∇H·D^≷ stage, and the accumulation
//     over ω becomes a windowed fused multiply over an Nω·Norb slab
//     (Fig. 11), re-fused per (a, b) to bound transient memory (Fig. 12).
//
// It is the full-grid tile of sigmaDaCeTileInto, the one DaCe Σ kernel of
// the serial, pool-parallel and distributed paths.
func (k *Kernel) SigmaDaCe(g *tensor.GTensor, d *PreD) *tensor.GTensor {
	return k.SigmaDaCeTile(g, d, 0, k.Dev.P.NE, 0, k.Dev.P.NA)
}
