package sse

import (
	"negfsim/internal/cmat"
	"negfsim/internal/tensor"
)

// Tile kernels: the communication-avoiding decomposition (§4.1) assigns
// each process an energy window × atom tile of the SSE output. These
// kernels compute exactly that tile, touching only the halo region of the
// inputs — energies [eLo−Nω, eHi) for Σ (the E−ℏω window), [eLo, eHi+Nω)
// for Π (the E+ℏω window), and the f(a, b) neighbor halo of the atom tile.
// The union of all tiles reproduces the full kernels exactly (tested), and
// the input footprint is the (NE/TE + 2Nω)·(NA/TA + NB) factor of the
// communication model.
//
// sigmaDaCeTileInto and piDaCeTileInto are the only DaCe SSE kernels: the
// full-grid SigmaDaCe/PiDaCe, the distributed tiles and the pool-parallel
// phase all run them. They accumulate into caller-provided tensors and
// write only the tile's atom slice, so tiles over disjoint atom ranges can
// share one output without synchronization. The Norb×Norb block products
// and traces run as direct slice loops in the exact operation order of
// cmat's naive kernel and of (*cmat.Dense).TraceMul (values are bitwise
// those of the per-block cmat calls), and each call adds its flop tally to
// cmat.Counter once: a per-block atomic add on the shared counter would
// bounce its cache line between the cores running concurrent tiles.

// SigmaDaCeTile computes Σ^≷[kz, E, a] for E ∈ [eLo, eHi) and a ∈ [aLo,
// aHi) with the DaCe-transformed kernel. The output tensor is full-size
// with zeros outside the tile. g must hold valid data for energies
// [max(0, eLo−Nω), eHi) and for the tile's atoms plus their neighbors.
func (k *Kernel) SigmaDaCeTile(g *tensor.GTensor, d *PreD, eLo, eHi, aLo, aHi int) *tensor.GTensor {
	p := k.Dev.P
	sigma := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
	k.sigmaDaCeTileInto(sigma, atomMajorGEMM(g.ToAtomMajor()), d, eLo, eHi, aLo, aHi)
	return sigma
}

// PiDaCeTile computes the Π^≷ contributions of the trace terms whose
// unshifted energy E lies in [eLo, eHi) and whose atom a lies in [aLo,
// aHi). Because the (E, a) pairs partition across tiles, summing the
// returned tensors over all tiles reproduces PiDaCe exactly. g≷ must hold
// valid data for energies [eLo, eHi+Nω) and the tile's atoms plus halo.
func (k *Kernel) PiDaCeTile(gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) (piLess, piGtr *tensor.DTensor) {
	p := k.Dev.P
	piLess = tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	piGtr = tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D)
	k.piDaCeTileInto(piLess, piGtr, gLess, gGtr, eLo, eHi, aLo, aHi)
	return piLess, piGtr
}

// gradG is stage 1 of the DaCe Σ kernel: it sets dst, stacked like an
// AtomMajor atom, to G^≷[·, ·, f]·dH on the whole (kz, E) grid.
type gradG func(dst, dH *cmat.Dense, f int)

// atomMajorGEMM is stage 1 on the atom-major layout of Fig. 10(c): one
// fused (Nkz·NE·Norb) × Norb × Norb GEMM per bond and direction (Fig. 10d).
func atomMajorGEMM(am *tensor.AtomMajor) gradG {
	return func(dst, dH *cmat.Dense, f int) { am.Atom[f].MulInto(dst, dH) }
}

// sigmaDaCeTileInto accumulates the (E, a) ∈ [eLo, eHi) × [aLo, aHi) tile
// of Σ^≷ into sigma, with stage 1 computed by stage1.
func (k *Kernel) sigmaDaCeTileInto(sigma *tensor.GTensor, stage1 gradG, d *PreD, eLo, eHi, aLo, aHi int) {
	p := k.Dev.P
	pref := k.sigmaPref()
	no := p.Norb
	nn := no * no
	// Per-call transients (Fig. 12: three-dimensional, reused per (a, b)):
	// ∇H·G^≷ on the whole (kz, E) grid per direction, and the ∇H·D^≷
	// stacks [i][qz] of Nω blocks, ascending energy (descending ω).
	dHG := make([]*cmat.Dense, p.N3D)
	for i := range dHG {
		dHG[i] = cmat.GetDense(p.Nkz*p.NE*no, no)
	}
	stackLen := p.Nw * nn
	stacks := cmat.GetDense(p.N3D*p.Nqz, stackLen)
	var out cmat.Dense // reusable view header
	var products int
	for a := aLo; a < aHi; a++ {
		for b := 0; b < p.NB; b++ {
			f := k.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			dH := k.dH[a][b]
			for i := range dHG {
				stage1(dHG[i], dH[i], f)
			}
			// Stage 2: ∇H·D^≷ with the j reduction and the prefactor folded
			// in, stacked so stage 3 consumes a contiguous window.
			clear(stacks.Data)
			for i := 0; i < p.N3D; i++ {
				for qz := 0; qz < p.Nqz; qz++ {
					stack := stacks.Data[(i*p.Nqz+qz)*stackLen:]
					for w := 0; w < p.Nw; w++ {
						blk := stack[(p.Nw-1-w)*nn : (p.Nw-w)*nn]
						for j := 0; j < p.N3D; j++ {
							c := pref * d.At(qz, w, a, b, i, j)
							for x, v := range dH[j].Data {
								blk[x] += c * v
							}
						}
					}
				}
			}
			// Stage 3 (Fig. 11c): windowed fused accumulation over ω — the
			// ∇H·G^≷ slab at energies e−smax … e−1 against the matching
			// ∇H·D^≷ window (shift s = e−e').
			for i := 0; i < p.N3D; i++ {
				hg := dHG[i].Data
				for qz := 0; qz < p.Nqz; qz++ {
					stack := stacks.Data[(i*p.Nqz+qz)*stackLen:]
					for kz := 0; kz < p.Nkz; kz++ {
						base := wrapK(kz, qz, p.Nkz) * p.NE
						for e := max(eLo, 1); e < eHi; e++ {
							smax := min(p.Nw, e)
							sigma.BlockInto(&out, kz, e, a)
							vlo := (base + e - smax) * nn
							clo := (p.Nw - smax) * nn
							for t := 0; t < smax; t++ {
								mulAddBlock(out.Data, hg[vlo+t*nn:vlo+(t+1)*nn], stack[clo+t*nn:clo+(t+1)*nn], no)
							}
							products += smax
						}
					}
				}
			}
		}
	}
	cmat.PutAll(dHG...)
	cmat.PutDense(stacks)
	cmat.Counter.AddFlops(uint64(products * 8 * nn * no))
}

// piDaCeTileInto accumulates the trace terms with unshifted energy E ∈
// [eLo, eHi) and atom a ∈ [aLo, aHi) into piLess/piGtr. Per bond it fills
// flat slabs of W_j = ∇jH_ab·G^≶_bb on the tile's energies and of U_i =
// ∇iH_ba·G^≷_aa on the E+ℏω halo [eLo+1, min(NE, eHi+Nω)), then sweeps
// (qz, ω) as Norb² trace contractions.
func (k *Kernel) piDaCeTileInto(piLess, piGtr *tensor.DTensor, gLess, gGtr *tensor.GTensor, eLo, eHi, aLo, aHi int) {
	p := k.Dev.P
	pref := complex(0, k.piPref())
	no := p.Norb
	nn := no * no
	n3 := p.N3D
	uLo, uHi := eLo+1, min(p.NE, eHi+p.Nw)
	nu, nw := max(uHi-uLo, 0), eHi-eLo
	// Slab layout: block (≷, direction, kz, E − lo), ≷ = 0 lesser, 1 greater.
	uSlab := cmat.GetDense(2*n3*p.Nkz*nu, nn)
	wSlab := cmat.GetDense(2*n3*p.Nkz*nw, nn)
	u := func(lg, i, kz, e int) []complex128 {
		o := (((lg*n3+i)*p.Nkz+kz)*nu + e - uLo) * nn
		return uSlab.Data[o : o+nn]
	}
	wb := func(lg, j, kz, e int) []complex128 {
		o := (((lg*n3+j)*p.Nkz+kz)*nw + e - eLo) * nn
		return wSlab.Data[o : o+nn]
	}
	gs := [2]*tensor.GTensor{gLess, gGtr}
	var gv cmat.Dense // reusable block-view header
	var products, traces int
	for a := aLo; a < aHi; a++ {
		for b := 0; b < p.NB; b++ {
			f := k.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			r := k.Dev.NeighborSlot(f, a)
			if r < 0 {
				continue
			}
			for lg, g := range gs {
				for kz := 0; kz < p.Nkz; kz++ {
					for e := uLo; e < uHi; e++ {
						g.BlockInto(&gv, kz, e, a)
						for i := 0; i < n3; i++ {
							dst := u(lg, i, kz, e)
							clear(dst)
							mulAddBlock(dst, k.dH[f][r][i].Data, gv.Data, no)
						}
					}
					for e := eLo; e < eHi; e++ {
						g.BlockInto(&gv, kz, e, f)
						for j := 0; j < n3; j++ {
							dst := wb(lg, j, kz, e)
							clear(dst)
							mulAddBlock(dst, k.dH[a][b][j].Data, gv.Data, no)
						}
					}
				}
			}
			products += 2 * n3 * p.Nkz * (nu + nw)
			// Eq. (5) fills the off-diagonal (a, b) slot with +i·pref·tr{…},
			// Eq. (4) accumulates −i·pref·tr{…} into the diagonal (a, a) slot.
			for qz := 0; qz < p.Nqz; qz++ {
				for w := 0; w < p.Nw; w++ {
					shift := p.PhononShift(w)
					row := ((qz*p.Nw+w)*p.NA + a) * (p.NB + 1)
					offL := piLess.Data[(row+b)*n3*n3 : (row+b+1)*n3*n3]
					diagL := piLess.Data[(row+p.NB)*n3*n3 : (row+p.NB+1)*n3*n3]
					offG := piGtr.Data[(row+b)*n3*n3 : (row+b+1)*n3*n3]
					diagG := piGtr.Data[(row+p.NB)*n3*n3 : (row+p.NB+1)*n3*n3]
					for kz := 0; kz < p.Nkz; kz++ {
						k2 := wrapK(kz, -qz, p.Nkz) // kz + qz, wrapped
						for e := eLo; e < eHi && e+shift < p.NE; e++ {
							for i := 0; i < n3; i++ {
								ul, ug := u(0, i, k2, e+shift), u(1, i, k2, e+shift)
								for j := 0; j < n3; j++ {
									vl := pref * traceMul(ul, wb(1, j, kz, e), no)
									vg := pref * traceMul(ug, wb(0, j, kz, e), no)
									offL[i*n3+j] += vl
									diagL[i*n3+j] += -vl
									offG[i*n3+j] += vg
									diagG[i*n3+j] += -vg
								}
							}
							traces += 2 * n3 * n3
						}
					}
				}
			}
		}
	}
	cmat.PutAll(uSlab, wSlab)
	cmat.Counter.AddFlops(uint64(products*8*nn*no + traces*8*nn))
}

// mulAddBlock computes out += a·b for n×n row-major blocks in the i-k-j
// order of cmat's naive kernel, including its skip of zero left entries.
func mulAddBlock(out, a, b []complex128, n int) {
	for i := 0; i < n; i++ {
		orow := out[i*n : (i+1)*n]
		for k, av := range a[i*n : (i+1)*n] {
			if av == 0 {
				continue
			}
			brow := b[k*n : (k+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// traceMul returns tr(a·b) for n×n row-major blocks in the summation order
// of (*cmat.Dense).TraceMul.
func traceMul(a, b []complex128, n int) complex128 {
	var t complex128
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			t += a[i*n+k] * b[k*n+i]
		}
	}
	return t
}
