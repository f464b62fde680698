package rgf

import (
	"math"

	"negfsim/internal/cmat"
)

// leadTol is the Sancho-Rubio tolerance of every lead self-energy the
// solvers compute.
const leadTol = 1e-10

// Leads is the retarded lead self-energy pair (Σ_L, Σ_R) of one grid point.
// The pair depends only on the lead operator — (H, S, kz, E, η) for
// electrons, (Φ, qz, ω, η) for phonons — and never on the scattering
// self-energies, so a Born loop computes it once per point and hands it to
// SolveElectronWith / SolvePhononWith on every later iteration.
//
// Storage is packed: a lead couples to the device only through the atoms on
// the contact face, so Σ is zero outside a few rows and columns. Only the
// rows and columns holding a nonzero entry are kept, and a dropped entry is
// exactly +0, so unpacking into a zeroed matrix restores Σ bit for bit.
// A Leads value is immutable once built and safe to share between
// goroutines.
type Leads struct {
	l, r packedSigma
}

// packedSigma is one self-energy's nonzero rows × nonzero columns,
// row-major, with the indices they came from.
type packedSigma struct {
	n          int // full matrix dimension
	rows, cols []int
	data       []complex128
}

// ElectronLeads decimates the leads of one (E, kz) point of Eq. (1) on the
// operator A = (E + iη)·S − H, as SolveElectron does.
func ElectronLeads(h, s *cmat.BlockTri, energy, eta float64) (*Leads, error) {
	a := electronOperator(h, s, energy, eta)
	defer cmat.PutBlockTri(a)
	return packLeads(a)
}

// PhononLeads decimates the leads of one (ω, qz) point of Eq. (2) on the
// operator A = (ω² + iη)·I − Φ, as SolvePhonon does.
func PhononLeads(phi *cmat.BlockTri, hw, eta float64) (*Leads, error) {
	a := phononOperator(phi, hw, eta)
	defer cmat.PutBlockTri(a)
	return packLeads(a)
}

// electronOperator assembles A = (E + iη)·S − H, before scattering, into a
// pooled matrix.
func electronOperator(h, s *cmat.BlockTri, energy, eta float64) *cmat.BlockTri {
	a := cmat.GetBlockTri(h.N, h.Bs)
	h.ShiftDiagInto(a, complex(energy, eta), s)
	return a
}

// phononOperator assembles A = (ω² + iη)·I − Φ into a pooled matrix.
func phononOperator(phi *cmat.BlockTri, hw, eta float64) *cmat.BlockTri {
	a := cmat.GetBlockTri(phi.N, phi.Bs)
	phi.ShiftIdentityInto(a, complex(hw*hw, eta))
	return a
}

// boundary decimates both leads of operator a under the rgf.boundary span.
// The results are arena-backed.
func boundary(a *cmat.BlockTri) (sigL, sigR *cmat.Dense, err error) {
	sp := obsSpanBoundary.Start()
	defer sp.End()
	return BoundarySelfEnergies(a, leadTol)
}

func packLeads(a *cmat.BlockTri) (*Leads, error) {
	sigL, sigR, err := boundary(a)
	if err != nil {
		return nil, err
	}
	defer cmat.PutAll(sigL, sigR)
	return &Leads{l: packSigma(sigL), r: packSigma(sigR)}, nil
}

// leadSelfEnergies returns Σ_L and Σ_R of operator a in arena buffers:
// unpacked from leads, or decimated afresh when leads is nil.
func leadSelfEnergies(a *cmat.BlockTri, leads *Leads) (sigL, sigR *cmat.Dense, err error) {
	if leads == nil {
		return boundary(a)
	}
	sigL = cmat.GetDense(a.Bs, a.Bs)
	sigR = cmat.GetDense(a.Bs, a.Bs)
	leads.l.unpackInto(sigL)
	leads.r.unpackInto(sigR)
	return sigL, sigR, nil
}

// packSigma keeps the rows and columns of the square matrix d that hold an
// entry whose bits are not +0.
func packSigma(d *cmat.Dense) packedSigma {
	n := d.Rows
	p := packedSigma{n: n}
	used := make([]bool, n)
	for i := 0; i < n; i++ {
		row := false
		for j, v := range d.Data[i*n : (i+1)*n] {
			if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
				row, used[j] = true, true
			}
		}
		if row {
			p.rows = append(p.rows, i)
		}
	}
	for j, u := range used {
		if u {
			p.cols = append(p.cols, j)
		}
	}
	p.data = make([]complex128, 0, len(p.rows)*len(p.cols))
	for _, i := range p.rows {
		for _, j := range p.cols {
			p.data = append(p.data, d.Data[i*n+j])
		}
	}
	return p
}

// unpackInto writes the full matrix into the zeroed n×n matrix dst.
func (p packedSigma) unpackInto(dst *cmat.Dense) {
	nc := len(p.cols)
	for ri, i := range p.rows {
		row := dst.Data[i*p.n : (i+1)*p.n]
		for ci, j := range p.cols {
			row[j] = p.data[ri*nc+ci]
		}
	}
}
