package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/core"
	"negfsim/internal/perfmodel"
	"negfsim/internal/rgf"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// The layer replay re-runs one Born iteration's work layer by layer on a
// converged result, timing each layer call from here: the boundary
// self-energies, electron and phonon RGF solves of every grid point on the
// workload's worker count, the SSE kernels, the distributed SSE exchange
// and the spatially partitioned retarded solve. The GF phase of the
// converged iteration used exactly the result's self-energies, so the
// replayed contact observables must reproduce the result's.

// boundaryTol is the Sancho–Rubio tolerance rgf.SolveElectron and
// rgf.SolvePhonon use.
const boundaryTol = 1e-10

// replayPasses is the number of timed replay passes; every metric is the
// median over them. One untimed pass before them fills the matrix arenas
// and caches.
const replayPasses = 5

// replayLayers runs the layer replay and sets the rgf.*, sse.* and comm.*
// metrics.
func replayLayers(r *run, sim *core.Simulator, res *core.Result) error {
	samples := map[string][]float64{}
	for i := 0; i <= replayPasses; i++ {
		err := replayPass(r, sim, res, func(name string, v float64) {
			if i > 0 {
				samples[name] = append(samples[name], v)
			}
		})
		if err != nil {
			return err
		}
	}
	for name, xs := range samples {
		r.set(name, median(xs))
	}
	return nil
}

// replayPass replays the layers once, checking their outputs, and hands
// each measurement to set.
func replayPass(r *run, sim *core.Simulator, res *core.Result, set func(string, float64)) error {
	dev := sim.Dev
	p := dev.P
	workers := sim.Opts.Workers
	h := make([]*cmat.BlockTri, p.Nkz)
	s := make([]*cmat.BlockTri, p.Nkz)
	for kz := range h {
		h[kz], s[kz] = dev.Hamiltonian(kz), dev.Overlap(kz)
	}
	phi := make([]*cmat.BlockTri, p.Nqz)
	for qz := range phi {
		phi[qz] = dev.Dynamical(qz)
	}
	sigR := sse.Retarded(res.SigmaLess, res.SigmaGtr)
	piR := sse.RetardedD(res.PiLess, res.PiGtr)
	type point struct{ kz, e, qz, w int } // e < 0 marks a phonon point
	var points []point
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			points = append(points, point{kz: kz, e: e})
		}
	}
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			points = append(points, point{e: -1, qz: qz, w: w})
		}
	}
	electron := func(pt point) *cmat.BlockTri {
		a := cmat.GetBlockTri(p.Bnum, p.ElectronBlockSize())
		h[pt.kz].ShiftDiagInto(a, complex(p.Energy(pt.e), sim.Opts.Eta), s[pt.kz])
		return a
	}
	phononHW := func(w int) float64 { return float64(p.PhononShift(w)) * p.EStep() }
	phonon := func(pt point) *cmat.BlockTri {
		a := cmat.GetBlockTri(phi[pt.qz].N, phi[pt.qz].Bs)
		hw := phononHW(pt.w)
		phi[pt.qz].ShiftIdentityInto(a, complex(hw*hw, sim.Opts.Eta))
		return a
	}

	// Boundary self-energies of every point, on the operators
	// SolveElectron and SolvePhonon build.
	tb, err := parallelPoints(len(points), workers, func(i int) error {
		pt := points[i]
		var a *cmat.BlockTri
		if pt.e >= 0 {
			a = electron(pt)
		} else {
			a = phonon(pt)
		}
		defer cmat.PutBlockTri(a)
		sl, sr, err := rgf.BoundarySelfEnergies(a, boundaryTol)
		if err != nil {
			return err
		}
		cmat.PutAll(sl, sr)
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay: boundary self-energies: %w", err)
	}

	var mu sync.Mutex
	var curL, curR, heatL, heatR float64
	eWeight := p.EStep() / float64(p.Nkz)
	nElectron := p.Nkz * p.NE
	te, err := parallelPoints(nElectron, workers, func(i int) error {
		pt := points[i]
		scat := electronScattering(sim, pt.kz, pt.e, sigR, res.SigmaLess, res.SigmaGtr)
		out, err := rgf.SolveElectron(h[pt.kz], s[pt.kz], p.Energy(pt.e), scat, sim.Opts.Contacts, sim.Opts.Eta)
		scat.Release()
		if err != nil {
			return err
		}
		mu.Lock()
		curL += out.CurrentL * eWeight
		curR += out.CurrentR * eWeight
		mu.Unlock()
		out.Release()
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay: electron solves: %w", err)
	}
	tp, err := parallelPoints(len(points)-nElectron, workers, func(i int) error {
		pt := points[nElectron+i]
		scat := phononScattering(sim, pt.qz, pt.w, piR, res.PiLess, res.PiGtr)
		out, err := rgf.SolvePhonon(phi[pt.qz], phononHW(pt.w), scat,
			rgf.PhononContacts{KTL: sim.Opts.PhononKTL, KTR: sim.Opts.PhononKTR}, sim.Opts.Eta)
		scat.Release()
		if err != nil {
			return err
		}
		mu.Lock()
		heatL += out.HeatL * eWeight
		heatR += out.HeatR * eWeight
		mu.Unlock()
		out.Release()
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay: phonon solves: %w", err)
	}
	r.check("replayed GF phase", func() error {
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"CurrentL", curL, res.Obs.CurrentL}, {"CurrentR", curR, res.Obs.CurrentR},
			{"HeatL", heatL, res.Obs.HeatL}, {"HeatR", heatR, res.Obs.HeatR},
		} {
			if err := near(c.what, c.got, c.want, refTol); err != nil {
				return err
			}
		}
		return nil
	}())
	set("rgf.points", float64(len(points)))
	set("rgf.boundary_s", seconds(tb))
	set("rgf.electron_s", seconds(te))
	set("rgf.phonon_s", seconds(tp))
	set("rgf.boundary_share", seconds(tb)/seconds(te+tp))

	// SSE kernels, called one by one as the serial DaCe phase calls them.
	k := sim.Kernel
	t0 := time.Now()
	preL := k.PreprocessD(res.DLess)
	preG := k.PreprocessD(res.DGtr)
	t1 := time.Now()
	sigL := k.SigmaDaCe(res.GLess, preL)
	sigG := k.SigmaDaCe(res.GGtr, preG)
	t2 := time.Now()
	piL, piG := k.PiDaCe(res.GLess, res.GGtr)
	t3 := time.Now()
	set("sse.preprocess_s", seconds(t1.Sub(t0)))
	set("sse.sigma_s", seconds(t2.Sub(t1)))
	set("sse.pi_s", seconds(t3.Sub(t2)))
	// Computed, not counted: the paper's closed-form DaCe flop count of one
	// lesser+greater Σ evaluation over the measured Σ time.
	set("sse.sigma_gflops", sse.SigmaFlopsDaCe(p)/seconds(t2.Sub(t1))/1e9)

	// Distributed SSE on a 1x2 grid: the same self-energies as the serial
	// kernels. Its byte count is exact; ModelBytes is the §4.1 closed form
	// with contiguous halos, an approximation of it, so their ratio is a
	// computed number, not a check.
	in := sse.PhaseInput{GLess: res.GLess, GGtr: res.GGtr, DLess: res.DLess, DGtr: res.DGtr}
	t4 := time.Now()
	dr, err := sim.DistributedSSE(in, 1, 2)
	set("comm.dist_sse_s", seconds(time.Since(t4)))
	if err != nil {
		return fmt.Errorf("replay: distributed SSE: %w", err)
	}
	r.check("distributed SSE", func() error {
		if d := maxRelDiffG(dr.SigmaLess, sigL) + maxRelDiffG(dr.SigmaGtr, sigG); d > refTol {
			return fmt.Errorf("Σ differs from the serial kernel by %g", d)
		}
		if d := maxRelDiffD(dr.PiLess, piL) + maxRelDiffD(dr.PiGtr, piG); d > refTol {
			return fmt.Errorf("Π differs from the serial kernel by %g", d)
		}
		return nil
	}())

	// Spatially partitioned retarded solve of every electron point on a
	// 2-rank cluster, on the operator the GF phase inverts.
	const ranks = 2
	var spatialBytes int64
	var spatial time.Duration
	feasible := p.Bnum >= 2*ranks-1
	if feasible {
		for i := 0; i < nElectron; i++ {
			a, err := retardedOperator(sim, electron(points[i]), points[i].kz, points[i].e, sigR)
			if err != nil {
				return fmt.Errorf("replay: spatial operator: %w", err)
			}
			// Every rank gets its own copy of the identical operator.
			ops := []*cmat.BlockTri{a, a.Clone()}
			cluster := comm.NewCluster(ranks)
			ts := time.Now()
			err = cluster.Run(func(rk *comm.Rank) error {
				_, err := rgf.DistributedRetarded(rk, ops[rk.ID])
				return err
			})
			spatial += time.Since(ts)
			spatialBytes += cluster.TotalBytes()
			cluster.Close()
			cmat.PutBlockTri(a)
			if err != nil {
				return fmt.Errorf("replay: spatial retarded solve: %w", err)
			}
		}
		want := int64(nElectron) * perfmodel.SpatialExchangeBytes(p.Bnum, p.ElectronBlockSize(), ranks)
		r.check("spatial exchange bytes", func() error {
			if spatialBytes != want {
				return fmt.Errorf("exchanged %d bytes, perfmodel gives %d", spatialBytes, want)
			}
			return nil
		}())
	}
	set("rgf.spatial_s", seconds(spatial))
	set("rgf.spatial_bytes", float64(spatialBytes))
	set("comm.bytes_per_iter", float64(dr.MeasuredBytes+int64(perfmodel.SpatialGFVolume(p, ranks))))
	set("comm.model_ratio", float64(dr.MeasuredBytes)/dr.ModelBytes)
	return nil
}

// parallelPoints runs fn over n points on a fixed set of workers pulling
// from a shared index, and returns the wall time and the first error.
func parallelPoints(n, workers int, fn func(i int) error) (time.Duration, error) {
	var next int
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), firstErr
}

// retardedOperator folds the boundary and retarded scattering
// self-energies of one electron point into a, the pristine operator
// (E + iη)·S − H, as the GF phase does before its retarded solve.
func retardedOperator(sim *core.Simulator, a *cmat.BlockTri, kz, e int, sigR *tensor.GTensor) (*cmat.BlockTri, error) {
	sl, sr, err := rgf.BoundarySelfEnergies(a, boundaryTol)
	if err != nil {
		cmat.PutBlockTri(a)
		return nil, err
	}
	a.Diag[0].SubInPlace(sl)
	a.Diag[a.N-1].SubInPlace(sr)
	cmat.PutAll(sl, sr)
	scat := electronScattering(sim, kz, e, sigR, sigR, sigR) // only R is folded in
	for i, blk := range scat.R {
		a.Diag[i].SubInPlace(blk)
	}
	scat.Release()
	return a, nil
}

// electronScattering assembles the per-RGF-block electron scattering
// self-energies of one (kz, E) point from the per-atom tensors (diagonal
// atom blocks), as the GF phase does.
func electronScattering(sim *core.Simulator, kz, e int, sigR, sigL, sigG *tensor.GTensor) rgf.Scattering {
	p := sim.Dev.P
	bs, apb := p.ElectronBlockSize(), p.AtomsPerBlock()
	out := rgf.Scattering{
		R:    make([]*cmat.Dense, p.Bnum),
		Less: make([]*cmat.Dense, p.Bnum),
		Gtr:  make([]*cmat.Dense, p.Bnum),
	}
	for blk := 0; blk < p.Bnum; blk++ {
		r, l, g := cmat.GetDense(bs, bs), cmat.GetDense(bs, bs), cmat.GetDense(bs, bs)
		for la := 0; la < apb; la++ {
			a, off := blk*apb+la, la*p.Norb
			r.SetSubmatrix(off, off, sigR.Block(kz, e, a))
			l.SetSubmatrix(off, off, sigL.Block(kz, e, a))
			g.SetSubmatrix(off, off, sigG.Block(kz, e, a))
		}
		out.R[blk], out.Less[blk], out.Gtr[blk] = r, l, g
	}
	return out
}

// phononScattering assembles the per-RGF-block phonon self-energies of one
// (qz, ω) point: atom self blocks and the neighbour couplings inside a
// block, as the GF phase does.
func phononScattering(sim *core.Simulator, qz, w int, piR, piL, piG *tensor.DTensor) rgf.PhononScattering {
	dev := sim.Dev
	p := dev.P
	bs, apb := p.PhononBlockSize(), p.AtomsPerBlock()
	out := rgf.PhononScattering{
		R:    make([]*cmat.Dense, p.Bnum),
		Less: make([]*cmat.Dense, p.Bnum),
		Gtr:  make([]*cmat.Dense, p.Bnum),
	}
	for blk := 0; blk < p.Bnum; blk++ {
		out.R[blk], out.Less[blk], out.Gtr[blk] = cmat.GetDense(bs, bs), cmat.GetDense(bs, bs), cmat.GetDense(bs, bs)
	}
	place := func(a, f, slot int) {
		blk := dev.BlockOf(a)
		if dev.BlockOf(f) != blk {
			return
		}
		ra, rf := (a-blk*apb)*p.N3D, (f-blk*apb)*p.N3D
		out.R[blk].SetSubmatrix(ra, rf, piR.Block(qz, w, a, slot))
		out.Less[blk].SetSubmatrix(ra, rf, piL.Block(qz, w, a, slot))
		out.Gtr[blk].SetSubmatrix(ra, rf, piG.Block(qz, w, a, slot))
	}
	for a := 0; a < p.NA; a++ {
		place(a, a, p.NB)
		for b := 0; b < p.NB; b++ {
			if f := dev.Neigh[a][b]; f >= 0 {
				place(a, f, b)
			}
		}
	}
	return out
}

// maxRelDiffG is max|a−b| / (1 + max|b|) over two electron tensors.
func maxRelDiffG(a, b *tensor.GTensor) float64 { return maxRelDiff(a.Data, b.Data) }

// maxRelDiffD is max|a−b| / (1 + max|b|) over two phonon tensors.
func maxRelDiffD(a, b *tensor.DTensor) float64 { return maxRelDiff(a.Data, b.Data) }

func maxRelDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d, m float64
	for i := range a {
		d = math.Max(d, cabs(a[i]-b[i]))
		m = math.Max(m, cabs(b[i]))
	}
	return d / (1 + m)
}

func cabs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
