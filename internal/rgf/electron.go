package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/obs"
)

// Phase timers of the GF phase. One span per solve (and per boundary
// decimation inside it); allocation-free and near-nops while obs recording
// is disabled, so the per-grid-point hot loop is unaffected.
var (
	obsSpanElectron = obs.GetTimer("rgf.electron")
	obsSpanPhonon   = obs.GetTimer("rgf.phonon")
	obsSpanBoundary = obs.GetTimer("rgf.boundary")
)

// Scattering carries the per-RGF-block scattering self-energy matrices for
// one (E, kz) point. Entries may be nil (treated as zero): the first GF pass
// of the Born iteration runs with Σ = 0. Only the diagonal blocks of Σ^S are
// retained, as in the paper (§2).
type Scattering struct {
	R, Less, Gtr []*cmat.Dense
}

// Release returns arena-backed scattering blocks to the workspace arena,
// for callers that assembled them with cmat.GetDense.
func (s Scattering) Release() {
	cmat.PutAll(s.R...)
	cmat.PutAll(s.Less...)
	cmat.PutAll(s.Gtr...)
}

// Contacts sets the occupation of the two leads.
type Contacts struct {
	MuL, MuR float64 // chemical potentials [eV]
	KT       float64 // thermal energy [eV]
}

// ElectronResult is the solution of Eq. (1) at one (E, kz) point.
type ElectronResult struct {
	GR, GLess, GGtr []*cmat.Dense // diagonal blocks

	// CurrentL/CurrentR are the Meir-Wingreen contact currents
	// Tr[Σ^<_c·G^> − Σ^>_c·G^<] evaluated at the left/right contact
	// (per-energy spectral current in natural units q/ℏ = 1; positive means
	// net electron flow into the device through that contact).
	CurrentL, CurrentR float64

	// DissipationPerBlock is Tr[Σ^<_S·G^> − Σ^>_S·G^<] per RGF block: the
	// energy exchanged with the phonon bath, driving the self-heating map.
	DissipationPerBlock []float64
}

// Release returns every Green's function block of the result to the
// workspace arena. The result must not be used afterwards. Callers that keep
// the blocks (tests, public results) simply never call it.
func (r *ElectronResult) Release() {
	cmat.PutAll(r.GR...)
	cmat.PutAll(r.GLess...)
	cmat.PutAll(r.GGtr...)
	r.GR, r.GLess, r.GGtr = nil, nil, nil
}

// SolveElectron solves one (E, kz) point of Eq. (1): boundary self-energies
// by Sancho-Rubio on the pristine operator, then the retarded and Keldysh
// RGF passes with the supplied scattering self-energies. It is
// SolveElectronWith with no stored leads and no cluster.
//
// The whole solve runs on workspace-arena buffers: the device operator is
// assembled once into a pooled block-tridiagonal matrix and mutated in place
// (no per-call Clone or Sub chains), and all intermediates are returned to
// the arena before the function exits. The result blocks are pooled too —
// call (*ElectronResult).Release once their contents have been consumed.
func SolveElectron(h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64) (*ElectronResult, error) {
	return SolveElectronWith(nil, true, nil, h, s, energy, scat, c, eta)
}

// SolveElectronWith is the electron solve behind SolveElectron and the Born
// loop. leads, when non-nil, supplies the point's lead self-energies
// (ElectronLeads) in place of a fresh decimation. A non-nil rank partitions
// the retarded solve across its cluster (DistributedRetarded): every rank
// assembles the identical operator and participates in the spatial
// exchange. Ranks with closure=true then run the Keldysh pass, currents and
// dissipation on the replicated diagonal and return the full result; the
// others return (nil, nil) once the collective solve is done. Exactly the
// closure ranks get a result, so a caller accumulating observables must pick
// closure ranks that cover each grid point exactly once per process. A nil
// rank solves locally and requires closure=true.
func SolveElectronWith(rank *comm.Rank, closure bool, leads *Leads, h, s *cmat.BlockTri, energy float64, scat Scattering, c Contacts, eta float64) (*ElectronResult, error) {
	if h.N != s.N || h.Bs != s.Bs {
		return nil, fmt.Errorf("rgf: H and S shapes differ: (%d,%d) vs (%d,%d)", h.N, h.Bs, s.N, s.Bs)
	}
	sp := obsSpanElectron.Start()
	defer sp.End()
	n, bs := h.N, h.Bs
	// A = (E + iη)·S − H, before scattering: the leads are ballistic.
	a := electronOperator(h, s, energy, eta)
	defer cmat.PutBlockTri(a)
	sigL, sigR, err := leadSelfEnergies(a, leads)
	if err != nil {
		return nil, err
	}
	gamL := cmat.GetDense(bs, bs)
	gamR := cmat.GetDense(bs, bs)
	broadeningInto(gamL, sigL)
	broadeningInto(gamR, sigR)

	// Fold boundary and scattering retarded parts into the device operator.
	a.Diag[0].SubInPlace(sigL)
	a.Diag[n-1].SubInPlace(sigR)
	cmat.PutAll(sigL, sigR)
	if scat.R != nil {
		for i := 0; i < n; i++ {
			if scat.R[i] != nil {
				a.Diag[i].SubInPlace(scat.R[i])
			}
		}
	}

	var ret *Retarded
	if rank == nil {
		ret, err = SolveRetarded(a)
		if err != nil {
			cmat.PutAll(gamL, gamR)
			return nil, err
		}
	} else {
		// Spatial split: the diagonal comes out of the distributed solve
		// (replicated on every rank); the closure rank rebuilds the
		// left-connected gL it needs for the Keldysh pass locally.
		diag, derr := DistributedRetarded(rank, a)
		if derr != nil {
			cmat.PutAll(gamL, gamR)
			return nil, derr
		}
		if !closure {
			cmat.PutAll(gamL, gamR)
			return nil, nil
		}
		gl, gerr := forwardGL(a)
		if gerr != nil {
			cmat.PutAll(gamL, gamR)
			return nil, gerr
		}
		ret = &Retarded{Diag: diag, gL: gl, a: a}
	}

	fL := FermiDirac(energy, c.MuL, c.KT)
	fR := FermiDirac(energy, c.MuR, c.KT)
	// Σ^< = i·f·Γ and Σ^> = i·(f−1)·Γ at the contacts.
	sigLessBlocks := make([]*cmat.Dense, n)
	sigGtrBlocks := make([]*cmat.Dense, n)
	for i := 0; i < n; i++ {
		less := cmat.GetDense(bs, bs)
		gtr := cmat.GetDense(bs, bs)
		if scat.Less != nil && scat.Less[i] != nil {
			less.AddInPlace(scat.Less[i])
		}
		if scat.Gtr != nil && scat.Gtr[i] != nil {
			gtr.AddInPlace(scat.Gtr[i])
		}
		sigLessBlocks[i] = less
		sigGtrBlocks[i] = gtr
	}
	sigLessBlocks[0].AddScaledInPlace(complex(0, fL), gamL)
	sigGtrBlocks[0].AddScaledInPlace(complex(0, fL-1), gamL)
	sigLessBlocks[n-1].AddScaledInPlace(complex(0, fR), gamR)
	sigGtrBlocks[n-1].AddScaledInPlace(complex(0, fR-1), gamR)

	res := &ElectronResult{GR: ret.Diag}
	res.GLess = ret.SolveKeldysh(sigLessBlocks)
	res.GGtr = ret.SolveKeldysh(sigGtrBlocks)
	ret.releaseGL()
	cmat.PutAll(sigLessBlocks...)
	cmat.PutAll(sigGtrBlocks...)

	// Meir-Wingreen contact currents, via O(bs²) trace products:
	// Tr[Σ^<_c·G^> − Σ^>_c·G^<] with Σ^≷_c = i·f·Γ / i·(f−1)·Γ.
	tL := gamL.TraceMul(res.GGtr[0])
	uL := gamL.TraceMul(res.GLess[0])
	res.CurrentL = real(complex(0, fL)*tL - complex(0, fL-1)*uL)
	tR := gamR.TraceMul(res.GGtr[n-1])
	uR := gamR.TraceMul(res.GLess[n-1])
	res.CurrentR = real(complex(0, fR)*tR - complex(0, fR-1)*uR)
	cmat.PutAll(gamL, gamR)

	res.DissipationPerBlock = make([]float64, n)
	if scat.Less != nil && scat.Gtr != nil {
		for i := 0; i < n; i++ {
			if scat.Less[i] == nil || scat.Gtr[i] == nil {
				continue
			}
			res.DissipationPerBlock[i] = real(scat.Less[i].TraceMul(res.GGtr[i]) -
				scat.Gtr[i].TraceMul(res.GLess[i]))
		}
	}
	return res, nil
}

// SpectralPerAtom returns −Im diag(G^R)/π aggregated per atom (local density
// of states), given the per-block diagonal G^R and orbitals per atom.
func SpectralPerAtom(gr []*cmat.Dense, norb int) []float64 {
	var out []float64
	for _, g := range gr {
		atoms := g.Rows / norb
		for a := 0; a < atoms; a++ {
			var s float64
			for o := 0; o < norb; o++ {
				s -= imag(g.At(a*norb+o, a*norb+o))
			}
			out = append(out, s/3.141592653589793)
		}
	}
	return out
}
