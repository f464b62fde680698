package sse

import (
	"math/rand"
	"testing"

	"negfsim/internal/cmat"
	"negfsim/internal/tensor"
)

func TestSigmaTilesCoverFullKernel(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(11))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	full := k.SigmaDaCe(g, pre)
	// 2×2 tile grid over (energy, atoms).
	sum := k.SigmaDaCeTile(g, pre, 0, p.NE/2, 0, p.NA/2)
	for _, tile := range [][4]int{
		{0, p.NE / 2, p.NA / 2, p.NA},
		{p.NE / 2, p.NE, 0, p.NA / 2},
		{p.NE / 2, p.NE, p.NA / 2, p.NA},
	} {
		part := k.SigmaDaCeTile(g, pre, tile[0], tile[1], tile[2], tile[3])
		for i := range sum.Data {
			sum.Data[i] += part.Data[i]
		}
	}
	if d := full.MaxAbsDiff(sum); d > 1e-10*(1+gScale(full)) {
		t.Fatalf("tile union differs from full Σ by %g", d)
	}
}

func TestSigmaTileIsExactSlice(t *testing.T) {
	// A single tile must equal the corresponding slice of the full result,
	// not an approximation: the halo covers every needed input.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(12))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	full := k.SigmaDaCe(g, pre)
	eLo, eHi, aLo, aHi := p.NE/4, 3*p.NE/4, p.NA/4, 3*p.NA/4
	tile := k.SigmaDaCeTile(g, pre, eLo, eHi, aLo, aHi)
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for a := 0; a < p.NA; a++ {
				inside := e >= eLo && e < eHi && a >= aLo && a < aHi
				d := tile.Block(kz, e, a).MaxAbsDiff(full.Block(kz, e, a))
				if inside && d > 1e-10*(1+gScale(full)) {
					t.Fatalf("tile wrong inside at (%d,%d,%d): %g", kz, e, a, d)
				}
				if !inside && tile.Block(kz, e, a).MaxAbs() != 0 {
					t.Fatalf("tile nonzero outside at (%d,%d,%d)", kz, e, a)
				}
			}
		}
	}
}

func TestPiTilesSumToFullKernel(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(13))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	fullL, fullG := k.PiDaCe(gl, gg)
	sumL, sumG := k.PiDaCeTile(gl, gg, 0, p.NE/2, 0, p.NA/2)
	for _, tile := range [][4]int{
		{0, p.NE / 2, p.NA / 2, p.NA},
		{p.NE / 2, p.NE, 0, p.NA / 2},
		{p.NE / 2, p.NE, p.NA / 2, p.NA},
	} {
		pl, pg := k.PiDaCeTile(gl, gg, tile[0], tile[1], tile[2], tile[3])
		for i := range sumL.Data {
			sumL.Data[i] += pl.Data[i]
			sumG.Data[i] += pg.Data[i]
		}
	}
	// Tile sums accumulate in a different order than the full kernel, so
	// agreement is to rounding at the tensor's scale, not bit-exact.
	var scale float64
	for _, v := range fullL.Data {
		if a := cmplxAbs(v); a > scale {
			scale = a
		}
	}
	if d := fullL.MaxAbsDiff(sumL); d > 1e-9*(1+scale) {
		t.Fatalf("Π^< tile sum differs by %g (scale %g)", d, scale)
	}
	if d := fullG.MaxAbsDiff(sumG); d > 1e-9*(1+scale) {
		t.Fatalf("Π^> tile sum differs by %g (scale %g)", d, scale)
	}
}

func TestSigmaTileUsesOnlyHaloInputs(t *testing.T) {
	// Poison G outside the documented halo (energy window [eLo−Nω, eHi),
	// atoms in the tile's neighbor set); the tile result must be unchanged.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(14))
	g := randomAntiHermG(rng, p)
	pre := k.PreprocessD(randomD(rng, p))
	eLo, eHi, aLo, aHi := p.NE/2, p.NE, 0, p.NA/2
	want := k.SigmaDaCeTile(g, pre, eLo, eHi, aLo, aHi)

	// Atom halo: the tile's atoms and their neighbors.
	halo := map[int]bool{}
	for a := aLo; a < aHi; a++ {
		halo[a] = true
		for _, f := range k.Dev.Neigh[a] {
			if f >= 0 {
				halo[f] = true
			}
		}
	}
	poisoned := g.Clone()
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			for a := 0; a < p.NA; a++ {
				if e >= eLo-p.Nw && e < eHi && halo[a] {
					continue
				}
				blk := poisoned.Block(kz, e, a)
				for i := range blk.Data {
					blk.Data[i] = complex(1e6, -1e6)
				}
			}
		}
	}
	got := k.SigmaDaCeTile(poisoned, pre, eLo, eHi, aLo, aHi)
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatalf("tile read outside its halo (diff %g)", d)
	}
}

func TestPiTileUsesOnlyHaloInputs(t *testing.T) {
	// The Π twin of TestSigmaTileUsesOnlyHaloInputs: poison G≷ outside the
	// documented halo (energy window [eLo, eHi+Nω), atoms in the tile's
	// neighbor set); the tile result must be bitwise unchanged. The tile is
	// interior in energy (eHi+Nω < NE), so the U slab's upper halo edge is
	// checked, not clipped by the grid. An eager slab that computes U one
	// energy beyond the halo reads poison it never uses, so the tile's flop
	// tally is pinned too: it must be exactly that of the declared windows.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(15))
	gl := randomAntiHermG(rng, p)
	gg := randomAntiHermG(rng, p)
	eLo, eHi, aLo, aHi := p.NE/4, p.NE/2, p.NA/4, p.NA/2
	if eHi+p.Nw >= p.NE {
		t.Fatalf("tile [%d,%d) + Nω=%d reaches the grid top NE=%d", eLo, eHi, p.Nw, p.NE)
	}
	cmat.Counter.Reset()
	wantL, wantG := k.PiDaCeTile(gl, gg, eLo, eHi, aLo, aHi)
	flops := cmat.Counter.Reset()

	// Per bond: U on [eLo+1, eHi+Nω) and W on [eLo, eHi), both ≷, every
	// direction and kz; one ≷ trace pair per (qz, ω, kz, E, i, j) whose
	// shifted energy stays on the grid.
	no := uint64(p.Norb)
	products := uint64(2 * p.N3D * p.Nkz * ((eHi + p.Nw - eLo - 1) + (eHi - eLo)))
	var traces uint64
	for w := 0; w < p.Nw; w++ {
		for e := eLo; e < eHi; e++ {
			if e+p.PhononShift(w) < p.NE {
				traces += uint64(p.Nqz * p.Nkz * 2 * p.N3D * p.N3D)
			}
		}
	}
	var bonds uint64
	for a := aLo; a < aHi; a++ {
		for _, f := range k.Dev.Neigh[a] {
			if f >= 0 && k.Dev.NeighborSlot(f, a) >= 0 {
				bonds++
			}
		}
	}
	if want := bonds * (products*8*no*no*no + traces*8*no*no); flops != want {
		t.Fatalf("Π tile counts %d flops, declared halo gives %d", flops, want)
	}

	halo := map[int]bool{}
	for a := aLo; a < aHi; a++ {
		halo[a] = true
		for _, f := range k.Dev.Neigh[a] {
			if f >= 0 {
				halo[f] = true
			}
		}
	}
	poison := func(g *tensor.GTensor) *tensor.GTensor {
		out := g.Clone()
		for kz := 0; kz < p.Nkz; kz++ {
			for e := 0; e < p.NE; e++ {
				for a := 0; a < p.NA; a++ {
					if e >= eLo && e < eHi+p.Nw && halo[a] {
						continue
					}
					blk := out.Block(kz, e, a)
					for i := range blk.Data {
						blk.Data[i] = complex(1e6, -1e6)
					}
				}
			}
		}
		return out
	}
	gotL, gotG := k.PiDaCeTile(poison(gl), poison(gg), eLo, eHi, aLo, aHi)
	if i := firstBitDiff(wantL.Data, gotL.Data); i >= 0 {
		t.Fatalf("Π^< tile read outside its halo (element %d: %v vs %v)", i, gotL.Data[i], wantL.Data[i])
	}
	if i := firstBitDiff(wantG.Data, gotG.Data); i >= 0 {
		t.Fatalf("Π^> tile read outside its halo (element %d: %v vs %v)", i, gotG.Data[i], wantG.Data[i])
	}
}

// TestTileFlopsPartitionFullCall pins the flop accounting of the tile
// kernels: over a partition of the atoms (the tile shape of the
// pool-parallel phase), the cmat.Counter deltas of SigmaDaCeTile and
// PiDaCeTile sum to those of the full-range SigmaDaCe/PiDaCe call, and the
// pool-parallel phase counts exactly what the serial phase counts. (Energy
// tiles recompute their halo products — Σ's stage 1 on the whole grid, Π's
// U slab on the E+ℏω window — so they count more than the full call.)
func TestTileFlopsPartitionFullCall(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(16))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	pre := k.PreprocessD(in.DLess)
	count := func(run func()) uint64 {
		cmat.Counter.Reset()
		run()
		return cmat.Counter.Reset()
	}
	cuts := []int{0, 5, p.NA / 2, p.NA - 3, p.NA}
	sigFull := count(func() { k.SigmaDaCe(in.GLess, pre) })
	piFull := count(func() { k.PiDaCe(in.GLess, in.GGtr) })
	var sigSum, piSum uint64
	for c := 1; c < len(cuts); c++ {
		sigSum += count(func() { k.SigmaDaCeTile(in.GLess, pre, 0, p.NE, cuts[c-1], cuts[c]) })
		piSum += count(func() { k.PiDaCeTile(in.GLess, in.GGtr, 0, p.NE, cuts[c-1], cuts[c]) })
	}
	if sigSum != sigFull || sigFull == 0 {
		t.Fatalf("Σ tiles count %d flops, full call %d", sigSum, sigFull)
	}
	if piSum != piFull || piFull == 0 {
		t.Fatalf("Π tiles count %d flops, full call %d", piSum, piFull)
	}
	serial := count(func() { k.ComputePhase(in, DaCe) })
	for _, workers := range []int{2, 3, 8} {
		if got := count(func() { k.ComputePhaseParallel(in, DaCe, workers) }); got != serial {
			t.Fatalf("workers=%d: parallel phase counts %d flops, serial %d", workers, got, serial)
		}
	}
}
