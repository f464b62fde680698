// Package sse implements the scattering self-energy phase of the simulator:
// the electron self-energies Σ^≷ of Eq. (3) and the phonon self-energies
// Π^≷ of Eqs. (4)–(5), in three algorithmic variants:
//
//   - Reference: the naive 8-dimensional map of Fig. 8, exactly as parsed
//     from the Python source — every temporary recomputed at every point.
//   - OMEN: the hand-optimized structure of the original C++ code — ∇H·G
//     hoisted out of the innermost vibration-direction loop, but still
//     recomputed for every (qz, ω) pair.
//   - DaCe: the data-centric transformed kernel of Figs. 9–12 — map fission,
//     redundancy removal (∇H·G computed once per bond and direction for the
//     whole (kz, E) grid as one fused GEMM), data-layout transformation to
//     atom-major storage, and fused windowed accumulation over ω.
//
// All variants compute identical values (verified by tests); they differ in
// data movement and flop count, which is the point of the paper.
//
// Index semantics (OMEN's commensurate-grid convention): momentum
// differences wrap modulo Nkz (periodic z axis); phonon energies are
// (w+1)·ΔE so energy shifts are integer grid displacements; contributions
// whose shifted energy falls off the grid are dropped.
package sse

import (
	"fmt"
	"math"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
	"negfsim/internal/obs"
	"negfsim/internal/tensor"
)

// Phase timers of the SSE phase, shared by the serial, shared-memory
// parallel and distributed execution paths (core's distributed tiles record
// on the same names). For parallel tiles the totals are cumulative across
// workers, so they can exceed elapsed wall clock.
var (
	obsSpanPreprocess = obs.GetTimer("sse.preprocess")
	obsSpanSigma      = obs.GetTimer("sse.sigma")
	obsSpanPi         = obs.GetTimer("sse.pi")
)

// Variant selects the algorithmic formulation of the SSE kernels.
type Variant int

const (
	// Reference is the naive dataflow of Fig. 8.
	Reference Variant = iota
	// OMEN is the hand-tuned original C++ structure.
	OMEN
	// DaCe is the data-centric transformed kernel (Figs. 9–12).
	DaCe
)

// String returns the variant name used in tables and benchmarks.
func (v Variant) String() string {
	switch v {
	case Reference:
		return "Reference"
	case OMEN:
		return "OMEN"
	case DaCe:
		return "DaCe"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Kernel carries the structure-dependent inputs of the SSE phase: the
// neighbor map and the Hamiltonian derivatives ∇H.
type Kernel struct {
	Dev *device.Device
	dH  [][][]*cmat.Dense // [atom][neighbor slot][direction], nil at edges
}

// NewKernel precomputes ∇H for the device.
func NewKernel(dev *device.Device) *Kernel {
	return &Kernel{Dev: dev, dH: dev.GradHAll()}
}

// sigmaPref is the prefactor i·ΔE/(2π·Nqz) of the discretized Eq. (3):
// i from the equation, ΔE/2π from the frequency integral (commensurate
// grid), 1/Nqz from the momentum-zone average.
func (k *Kernel) sigmaPref() complex128 {
	p := k.Dev.P
	return complex(0, p.EStep()/(2*math.Pi*float64(p.Nqz)))
}

// piPref is the magnitude of the prefactor ΔE/(2π·Nkz) of Eqs. (4)–(5);
// the diagonal term carries −i, the off-diagonal +i.
func (k *Kernel) piPref() float64 {
	p := k.Dev.P
	return p.EStep() / (2 * math.Pi * float64(p.Nkz))
}

// wrapK returns (k − q) mod Nkz ≥ 0.
func wrapK(k, q, nkz int) int { return ((k-q)%nkz + nkz) % nkz }

// PreD is the preprocessed phonon Green's function of Eq. (3): for every
// (qz, ω, a, b, i, j) the scalar combination
//
//	D^≷ij_ba − D^≷ij_bb − D^≷ij_aa + D^≷ij_ab,
//
// stored as a flat 6-D array with NB neighbor slots (no self slot).
type PreD struct {
	Nqz, Nw, NA, NB, N3D int
	Data                 []complex128
}

// At returns the preprocessed value at (qz, w, a, b, i, j).
func (p *PreD) At(qz, w, a, b, i, j int) complex128 {
	return p.Data[((((qz*p.Nw+w)*p.NA+a)*p.NB+b)*p.N3D+i)*p.N3D+j]
}

// PreprocessD builds the PreD combination from a phonon tensor. Bonds whose
// reverse direction is missing from the neighbor list (structure edges)
// contribute their forward information only, matching what OMEN's
// preprocessing does at device boundaries.
func (k *Kernel) PreprocessD(d *tensor.DTensor) *PreD {
	p := k.Dev.P
	out := &PreD{Nqz: d.Nqz, Nw: d.Nw, NA: p.NA, NB: p.NB, N3D: p.N3D,
		Data: make([]complex128, d.Nqz*d.Nw*p.NA*p.NB*p.N3D*p.N3D)}
	n2 := p.N3D * p.N3D
	idx := 0
	for qz := 0; qz < d.Nqz; qz++ {
		for w := 0; w < d.Nw; w++ {
			// block returns the (a, slot) block of D at this (qz, ω).
			block := func(a, slot int) []complex128 {
				off := (((qz*d.Nw+w)*p.NA+a)*(p.NB+1) + slot) * n2
				return d.Data[off : off+n2]
			}
			for a := 0; a < p.NA; a++ {
				for b := 0; b < p.NB; b++ {
					f := k.Dev.Neigh[a][b]
					if f < 0 {
						idx += n2
						continue
					}
					dab, daa, dbb := block(a, b), block(a, p.NB), block(f, p.NB)
					var dba []complex128
					if r := k.Dev.NeighborSlot(f, a); r >= 0 {
						dba = block(f, r)
					}
					for x := range dab {
						v := dab[x] - dbb[x] - daa[x]
						if dba != nil {
							v += dba[x]
						}
						out.Data[idx] = v
						idx++
					}
				}
			}
		}
	}
	return out
}

// PhaseInput bundles the Green's functions entering one SSE phase.
type PhaseInput struct {
	GLess, GGtr *tensor.GTensor
	DLess, DGtr *tensor.DTensor
}

// PhaseOutput bundles the self-energies the SSE phase produces.
type PhaseOutput struct {
	SigmaLess, SigmaGtr *tensor.GTensor
	PiLess, PiGtr       *tensor.DTensor
}

// ComputePhase evaluates the full SSE phase (Σ^≷ and Π^≷) with the selected
// variant.
func (k *Kernel) ComputePhase(in PhaseInput, v Variant) PhaseOutput {
	spp := obsSpanPreprocess.Start()
	preLess := k.PreprocessD(in.DLess)
	preGtr := k.PreprocessD(in.DGtr)
	spp.End()
	var out PhaseOutput
	sps := obsSpanSigma.Start()
	switch v {
	case Reference:
		out.SigmaLess = k.SigmaReference(in.GLess, preLess)
		out.SigmaGtr = k.SigmaReference(in.GGtr, preGtr)
	case OMEN:
		out.SigmaLess = k.SigmaOMEN(in.GLess, preLess)
		out.SigmaGtr = k.SigmaOMEN(in.GGtr, preGtr)
	case DaCe:
		out.SigmaLess = k.SigmaDaCe(in.GLess, preLess)
		out.SigmaGtr = k.SigmaDaCe(in.GGtr, preGtr)
	default:
		panic("sse: unknown variant")
	}
	sps.End()
	spq := obsSpanPi.Start()
	switch v {
	case Reference:
		out.PiLess, out.PiGtr = k.PiReference(in.GLess, in.GGtr)
	case OMEN:
		out.PiLess, out.PiGtr = k.PiOMEN(in.GLess, in.GGtr)
	case DaCe:
		out.PiLess, out.PiGtr = k.PiDaCe(in.GLess, in.GGtr)
	}
	spq.End()
	return out
}

// Retarded returns the retarded component from the lesser/greater pair via
// the paper's relation Σ^R ≈ (Σ^> − Σ^<)/2 (also used for Π^R).
func Retarded(less, gtr *tensor.GTensor) *tensor.GTensor {
	out := tensor.NewGTensor(less.Nkz, less.NE, less.NA, less.Norb)
	for i := range out.Data {
		out.Data[i] = 0.5 * (gtr.Data[i] - less.Data[i])
	}
	return out
}

// RetardedD is the phonon analogue of Retarded: Π^R ≈ (Π^> − Π^<)/2.
func RetardedD(less, gtr *tensor.DTensor) *tensor.DTensor {
	out := tensor.NewDTensor(less.Nqz, less.Nw, less.NA, less.NB, less.N3D)
	for i := range out.Data {
		out.Data[i] = 0.5 * (gtr.Data[i] - less.Data[i])
	}
	return out
}

// AntiHermitize projects every diagonal (kz, E, a) block of t onto its
// anti-Hermitian part, t ← (t − t^H)/2 — the stabilization real NEGF codes
// apply to scattering self-energies before feeding them back into the GF
// phase.
func AntiHermitize(t *tensor.GTensor) {
	for kz := 0; kz < t.Nkz; kz++ {
		for e := 0; e < t.NE; e++ {
			for a := 0; a < t.NA; a++ {
				blk := t.Block(kz, e, a)
				h := blk.ConjTranspose()
				blk.AddScaledInPlace(-1, h)
				blk.ScaleInPlace(0.5)
			}
		}
	}
}

// DH returns the precomputed derivative block ∇_i H at (atom, neighbor
// slot, direction); nil for missing neighbors. Exposed for the distributed
// round kernels in internal/core.
func (k *Kernel) DH(a, b, i int) *cmat.Dense { return k.dH[a][b][i] }

// SigmaPrefactor exposes the Σ^≷ accumulation prefactor i·ΔE/(2π·Nqz).
func (k *Kernel) SigmaPrefactor() complex128 { return k.sigmaPref() }

// PiPrefactor exposes the magnitude of the Π^≷ prefactor ΔE/(2π·Nkz).
func (k *Kernel) PiPrefactor() float64 { return k.piPref() }
