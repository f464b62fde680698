package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
)

// PhononScattering carries the per-RGF-block phonon self-energy matrices
// Π^R, Π^≷ for one (ω, qz) point; entries may be nil.
type PhononScattering struct {
	R, Less, Gtr []*cmat.Dense
}

// Release returns arena-backed scattering blocks to the workspace arena,
// for callers that assembled them with cmat.GetDense.
func (s PhononScattering) Release() {
	cmat.PutAll(s.R...)
	cmat.PutAll(s.Less...)
	cmat.PutAll(s.Gtr...)
}

// PhononContacts sets the lattice temperature of the two contacts via their
// Bose occupations.
type PhononContacts struct {
	KTL, KTR float64 // thermal energies of the left/right heat bath [eV]
}

// PhononResult is the solution of Eq. (2) at one (ω, qz) point.
type PhononResult struct {
	DR, DLess, DGtr []*cmat.Dense // diagonal blocks

	// HeatL/HeatR are the phonon (energy) currents at the contacts,
	// Tr[Π^<_c·D^> − Π^>_c·D^<] in natural units.
	HeatL, HeatR float64
}

// Release returns every Green's function block of the result to the
// workspace arena. The result must not be used afterwards.
func (r *PhononResult) Release() {
	cmat.PutAll(r.DR...)
	cmat.PutAll(r.DLess...)
	cmat.PutAll(r.DGtr...)
	r.DR, r.DLess, r.DGtr = nil, nil, nil
}

// SolvePhonon solves one (ω, qz) point of Eq. (2):
// (ω²·I − Φ(qz) − Π^R)·D^R = I and D^≷ = D^R·Π^≷·D^A.
// hw is the phonon energy ℏω in eV; the squared frequency enters the
// operator directly. It is SolvePhononWith with no stored leads.
//
// Like SolveElectron, the solve is arena-backed throughout: the operator
// ω²·I − Φ is assembled in one pass into a pooled matrix (no block identity
// is materialized) and mutated in place; result blocks are released via
// (*PhononResult).Release.
func SolvePhonon(phi *cmat.BlockTri, hw float64, scat PhononScattering, c PhononContacts, eta float64) (*PhononResult, error) {
	return SolvePhononWith(nil, phi, hw, scat, c, eta)
}

// SolvePhononWith is the phonon solve behind SolvePhonon and the Born loop.
// leads, when non-nil, supplies the point's lead self-energies
// (PhononLeads) in place of a fresh decimation.
func SolvePhononWith(leads *Leads, phi *cmat.BlockTri, hw float64, scat PhononScattering, c PhononContacts, eta float64) (*PhononResult, error) {
	if hw <= 0 {
		return nil, fmt.Errorf("rgf: phonon energy must be positive, got %g", hw)
	}
	sp := obsSpanPhonon.Start()
	defer sp.End()
	n, bs := phi.N, phi.Bs
	// A = (ω² + iη)·I − Φ.
	a := phononOperator(phi, hw, eta)
	defer cmat.PutBlockTri(a)
	sigL, sigR, err := leadSelfEnergies(a, leads)
	if err != nil {
		return nil, err
	}
	gamL := cmat.GetDense(bs, bs)
	gamR := cmat.GetDense(bs, bs)
	broadeningInto(gamL, sigL)
	broadeningInto(gamR, sigR)

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

	ret, err := SolveRetarded(a)
	if err != nil {
		cmat.PutAll(gamL, gamR)
		return nil, err
	}

	nL := BoseEinstein(hw, c.KTL)
	nR := BoseEinstein(hw, c.KTR)
	// Π^< = −i·N·Γ and Π^> = −i·(N+1)·Γ at the contacts, so that
	// Π^> − Π^< = −i·Γ = Π^R − Π^A holds.
	piLess := make([]*cmat.Dense, n)
	piGtr := make([]*cmat.Dense, n)
	for i := 0; i < n; i++ {
		less := cmat.GetDense(bs, bs)
		gtr := cmat.GetDense(bs, bs)
		if scat.Less != nil && scat.Less[i] != nil {
			less.AddInPlace(scat.Less[i])
		}
		if scat.Gtr != nil && scat.Gtr[i] != nil {
			gtr.AddInPlace(scat.Gtr[i])
		}
		piLess[i] = less
		piGtr[i] = gtr
	}
	piLess[0].AddScaledInPlace(complex(0, -nL), gamL)
	piGtr[0].AddScaledInPlace(complex(0, -(nL+1)), gamL)
	piLess[n-1].AddScaledInPlace(complex(0, -nR), gamR)
	piGtr[n-1].AddScaledInPlace(complex(0, -(nR+1)), gamR)

	res := &PhononResult{DR: ret.Diag}
	res.DLess = ret.SolveKeldysh(piLess)
	res.DGtr = ret.SolveKeldysh(piGtr)
	ret.releaseGL()
	cmat.PutAll(piLess...)
	cmat.PutAll(piGtr...)

	// Contact heat currents via trace products, no matrix intermediates:
	// Tr[Π^<_c·D^> − Π^>_c·D^<] with Π^<_c = −i·N·Γ, Π^>_c = −i·(N+1)·Γ.
	tL := gamL.TraceMul(res.DGtr[0])
	uL := gamL.TraceMul(res.DLess[0])
	res.HeatL = real(complex(0, -nL)*tL - complex(0, -(nL+1))*uL)
	tR := gamR.TraceMul(res.DGtr[n-1])
	uR := gamR.TraceMul(res.DLess[n-1])
	res.HeatR = real(complex(0, -nR)*tR - complex(0, -(nR+1))*uR)
	cmat.PutAll(gamL, gamR)
	return res, nil
}
