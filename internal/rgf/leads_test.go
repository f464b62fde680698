package rgf

import (
	"math"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
)

// sameBits reports the first entry where a and b differ in any bit.
func sameBits(t *testing.T, what string, got, want *cmat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: entry %d = %v, want %v (bitwise)", what, i, g, w)
		}
	}
}

// TestLeadsUnpackBitwise pins the packed lead storage: for every zoo kind,
// every electron (kz, E) and phonon (qz, ω) point — plus the chain's band
// edges, where the decimation converges slowest — the unpacked Σ_L/Σ_R are
// bitwise BoundarySelfEnergies on the same operator, and a solve with the
// stored leads is bitwise the solve that decimates afresh.
func TestLeadsUnpackBitwise(t *testing.T) {
	chain := device.Chain{Cols: 8, Rows: 1, T1: 1, T2: 0.6, Junction: 4,
		NE: 8, Nw: 3, NB: 3, Bnum: 4, Nkz: 1, Emin: -2.5, Emax: 2.5}
	lo, hi := chain.BandEdges()
	cases := []struct {
		kind  string
		spec  device.Spec
		extra []float64
	}{
		{"nanowire", device.Nanowire{Params: device.Mini()}, nil},
		{"cnt", device.CNT{N: 6, M: 0, Cols: 6, Subbands: 2, NE: 8, Nw: 3, NB: 3, Bnum: 3, Nkz: 1, Emin: -2.5, Emax: 2.5}, nil},
		{"chain", chain, []float64{lo, hi, -lo, -hi}},
		{"gnr", device.GNR{Width: 3, Layers: 1, Cols: 8, NE: 8, Nw: 3, NB: 3, Bnum: 4, Nkz: 1, Emin: -3, Emax: 3}, nil},
	}
	const eta = 1e-6
	c := Contacts{MuL: 0.2, MuR: -0.2, KT: 0.025}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			d, err := tc.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			p := d.P
			energies := append([]float64(nil), tc.extra...)
			for e := 0; e < p.NE; e++ {
				energies = append(energies, p.Energy(e))
			}
			var kept, total int
			for kz := 0; kz < p.Nkz; kz++ {
				h, s := d.Hamiltonian(kz), d.Overlap(kz)
				for _, en := range energies {
					leads, err := ElectronLeads(h, s, en, eta)
					if err != nil {
						t.Fatalf("kz=%d E=%g: %v", kz, en, err)
					}
					a := h.ShiftDiag(complex(en, eta), s)
					wantL, wantR, err := BoundarySelfEnergies(a, leadTol)
					if err != nil {
						t.Fatal(err)
					}
					gotL, gotR, _ := leadSelfEnergies(a, leads)
					sameBits(t, "electron Σ_L", gotL, wantL)
					sameBits(t, "electron Σ_R", gotR, wantR)
					kept += len(leads.l.data) + len(leads.r.data)
					total += 2 * p.ElectronBlockSize() * p.ElectronBlockSize()

					cached, err := SolveElectronWith(nil, true, leads, h, s, en, Scattering{}, c, eta)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := SolveElectron(h, s, en, Scattering{}, c, eta)
					if err != nil {
						t.Fatal(err)
					}
					for b := range fresh.GLess {
						sameBits(t, "G<", cached.GLess[b], fresh.GLess[b])
						sameBits(t, "G>", cached.GGtr[b], fresh.GGtr[b])
					}
					if math.Float64bits(cached.CurrentL) != math.Float64bits(fresh.CurrentL) {
						t.Fatalf("kz=%d E=%g: CurrentL %v with stored leads, %v fresh", kz, en, cached.CurrentL, fresh.CurrentL)
					}
				}
			}
			t.Logf("electron leads keep %d of %d entries", kept, total)
			for qz := 0; qz < p.Nqz; qz++ {
				phi := d.Dynamical(qz)
				for w := 0; w < p.Nw; w++ {
					hw := float64(p.PhononShift(w)) * p.EStep()
					leads, err := PhononLeads(phi, hw, eta)
					if err != nil {
						t.Fatalf("qz=%d ω=%d: %v", qz, w, err)
					}
					a := cmat.NewBlockTri(phi.N, phi.Bs)
					phi.ShiftIdentityInto(a, complex(hw*hw, eta))
					wantL, wantR, err := BoundarySelfEnergies(a, leadTol)
					if err != nil {
						t.Fatal(err)
					}
					gotL, gotR, _ := leadSelfEnergies(a, leads)
					sameBits(t, "phonon Σ_L", gotL, wantL)
					sameBits(t, "phonon Σ_R", gotR, wantR)

					pc := PhononContacts{KTL: 0.026, KTR: 0.025}
					cached, err := SolvePhononWith(leads, phi, hw, PhononScattering{}, pc, eta)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := SolvePhonon(phi, hw, PhononScattering{}, pc, eta)
					if err != nil {
						t.Fatal(err)
					}
					for b := range fresh.DLess {
						sameBits(t, "D<", cached.DLess[b], fresh.DLess[b])
					}
					if math.Float64bits(cached.HeatL) != math.Float64bits(fresh.HeatL) {
						t.Fatalf("qz=%d ω=%d: HeatL %v with stored leads, %v fresh", qz, w, cached.HeatL, fresh.HeatL)
					}
				}
			}
		})
	}
}

// TestLeadsPackNanowire pins the packing on the nanowire: a lead couples
// through one column of atoms, so of each 16×16 electron Σ only 8×8
// entries are stored, and 12×12 of each 24×24 phonon Σ.
func TestLeadsPackNanowire(t *testing.T) {
	d, err := device.New(device.Mini())
	if err != nil {
		t.Fatal(err)
	}
	p := d.P
	el, err := ElectronLeads(d.Hamiltonian(1), d.Overlap(1), p.Energy(5), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := PhononLeads(d.Dynamical(1), float64(p.PhononShift(2))*p.EStep(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what       string
		ps         packedSigma
		rows, cols int
	}{
		{"electron Σ_L", el.l, 8, 8}, {"electron Σ_R", el.r, 8, 8},
		{"phonon Σ_L", ph.l, 12, 12}, {"phonon Σ_R", ph.r, 12, 12},
	} {
		if len(c.ps.rows) != c.rows || len(c.ps.cols) != c.cols {
			t.Errorf("%s packs %d×%d, want %d×%d", c.what, len(c.ps.rows), len(c.ps.cols), c.rows, c.cols)
		}
	}
}
