package rgf

import (
	"fmt"

	"negfsim/internal/cmat"
)

// CornerBlock returns G^R[N−1, 0], the corner block of the retarded Green's
// function connecting the two contacts, via the standard product form
//
//	G^R[N−1, 0] = G^R[N−1, N−1] · ∏_{m=N−1..1} (−A[m, m−1]·gL[m−1]).
func (r *Retarded) CornerBlock() *cmat.Dense {
	n := r.a.N
	out := r.Diag[n-1].Clone()
	for m := n - 1; m >= 1; m-- {
		out = out.Mul(r.a.Lower[m-1]).Mul(r.gL[m-1]).Scale(-1)
	}
	return out
}

// Transmission computes the Caroli transmission function at one energy:
//
//	T(E) = Tr[Γ_R · G^R[N−1,0] · Γ_L · (G^R[N−1,0])^H],
//
// the coherent-transport observable of Landauer theory. gamL/gamR are the
// contact broadenings of the operator A used to build r (with the boundary
// self-energies already folded into its corner blocks).
func (r *Retarded) Transmission(gamL, gamR *cmat.Dense) float64 {
	g := r.CornerBlock()
	t := gamR.Mul(g).Mul(gamL).Mul(g.ConjTranspose()).Trace()
	return real(t)
}

// SolveElectronBallistic solves one (E, kz) point without scattering and
// additionally returns the transmission function — used to cross-validate
// the Meir-Wingreen current against the Landauer picture:
// I(E) = T(E)·(f_L − f_R) must equal the contact current exactly.
func SolveElectronBallistic(h, s *cmat.BlockTri, energy float64, c Contacts, eta float64) (*ElectronResult, float64, error) {
	if h.N != s.N || h.Bs != s.Bs {
		return nil, 0, fmt.Errorf("rgf: H and S shapes differ")
	}
	n := h.N
	a0 := h.ShiftDiag(complex(energy, eta), s)
	sigL, sigR, err := BoundarySelfEnergies(a0, leadTol)
	if err != nil {
		return nil, 0, err
	}
	gamL, gamR := Broadening(sigL), Broadening(sigR)
	a := a0.Clone()
	a.Diag[0] = a.Diag[0].Sub(sigL)
	a.Diag[n-1] = a.Diag[n-1].Sub(sigR)
	ret, err := SolveRetarded(a)
	if err != nil {
		return nil, 0, err
	}
	fL := FermiDirac(energy, c.MuL, c.KT)
	fR := FermiDirac(energy, c.MuR, c.KT)
	sigLess := make([]*cmat.Dense, n)
	sigGtr := make([]*cmat.Dense, n)
	for i := 0; i < n; i++ {
		sigLess[i] = cmat.NewDense(h.Bs, h.Bs)
		sigGtr[i] = cmat.NewDense(h.Bs, h.Bs)
	}
	sigLess[0].AddScaledInPlace(complex(0, fL), gamL)
	sigGtr[0].AddScaledInPlace(complex(0, fL-1), gamL)
	sigLess[n-1].AddScaledInPlace(complex(0, fR), gamR)
	sigGtr[n-1].AddScaledInPlace(complex(0, fR-1), gamR)

	res := &ElectronResult{GR: ret.Diag}
	res.GLess = ret.SolveKeldysh(sigLess)
	res.GGtr = ret.SolveKeldysh(sigGtr)
	cLessL := gamL.Scale(complex(0, fL))
	cGtrL := gamL.Scale(complex(0, fL-1))
	cLessR := gamR.Scale(complex(0, fR))
	cGtrR := gamR.Scale(complex(0, fR-1))
	res.CurrentL = real(cLessL.Mul(res.GGtr[0]).Trace() - cGtrL.Mul(res.GLess[0]).Trace())
	res.CurrentR = real(cLessR.Mul(res.GGtr[n-1]).Trace() - cGtrR.Mul(res.GLess[n-1]).Trace())
	res.DissipationPerBlock = make([]float64, n)
	return res, ret.Transmission(gamL, gamR), nil
}
