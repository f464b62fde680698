// Package core is the paper's primary contribution assembled into a
// runnable simulator: the self-consistent NEGF loop coupling the Green's
// function (GF) phase — RGF solves of Eqs. (1) and (2) over all momentum,
// energy and frequency points — with the scattering self-energy (SSE)
// phase of Eqs. (3)–(5), in any of the three kernel variants (naive
// reference, OMEN-style, DaCe-transformed), plus the communication-avoiding
// distributed execution of the SSE phase on the simulated cluster.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"negfsim/internal/cmat"
	"negfsim/internal/device"
	"negfsim/internal/egrid"
	"negfsim/internal/obs"
	"negfsim/internal/pool"
	"negfsim/internal/rgf"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// Top-level phase timers of the Born loop. core measures the phases with
// its own clock (the durations also feed Result.Timings and the
// OnIteration hook) and mirrors them onto the observability registry, so
// a scrape of /metrics sees the same breakdown the trace reports.
var (
	obsSpanGF  = obs.GetTimer("core.gf")
	obsSpanSSE = obs.GetTimer("core.sse")
	obsSpanMix = obs.GetTimer("core.mix")
)

// Options configures the self-consistent solver.
type Options struct {
	// Variant selects the SSE kernel formulation.
	Variant sse.Variant
	// MaxIter bounds the Born (GF↔SSE) iteration count.
	MaxIter int
	// Tol is the convergence threshold on the relative change of G^≷.
	Tol float64
	// Mixing linearly mixes new self-energies into the previous ones
	// (1 = full update). Values below 1 damp the Born iteration.
	Mixing float64
	// Contacts sets the electron reservoir occupations.
	Contacts rgf.Contacts
	// PhononKTL/R set the contact lattice temperatures (thermal energies).
	PhononKTL, PhononKTR float64
	// Eta is the numerical broadening of the retarded solves.
	Eta float64
	// Workers bounds the shared-memory parallelism over grid points;
	// 0 means GOMAXPROCS.
	Workers int
	// Mixer selects the self-consistency update rule (Linear or Anderson).
	Mixer MixerKind
	// AndersonHistory is the Anderson mixer's history depth (default 3).
	AndersonHistory int
	// OnIteration, when non-nil, is called after every Born iteration with
	// that iteration's phase breakdown — the hook behind cmd/qtsim's
	// -trace-out JSON trace. It runs on the solver goroutine; keep it
	// cheap (write a line, update a gauge) or the iteration time it
	// reports next will include itself.
	OnIteration func(IterStats)
}

// IterStats is one Born iteration's Table 7-style breakdown, delivered to
// Options.OnIteration. GF + SSE + Mix cover the phase work; Wall − (GF +
// SSE + Mix) is loop overhead (convergence norms, tensor bookkeeping).
type IterStats struct {
	// Iter is the 1-based Born iteration index within this run.
	Iter int
	// Wall is the full iteration wall time.
	Wall time.Duration
	// GF is the Green's-function phase: every (kz, E) electron and
	// (qz, ω) phonon RGF solve of the iteration.
	GF time.Duration
	// SSE is the scattering self-energy phase (Σ^≷ and Π^≷ kernels).
	// Zero on a final iteration that converged before the SSE phase ran.
	SSE time.Duration
	// Mix is self-energy mixing plus the retarded reconstruction.
	Mix time.Duration
	// Residual is the relative G change versus the previous iteration;
	// NaN on the first iteration, where no previous G exists.
	Residual float64
	// Converged reports whether this iteration met the tolerance.
	Converged bool
	// Spans holds the observability-timer activity recorded during the
	// iteration (rgf.electron, sse.sigma, comm.alltoallv, …). Nil unless
	// obs recording is enabled. Parallel phases accumulate worker time,
	// so span totals may exceed Wall.
	Spans []obs.TimerStat
}

// DefaultOptions returns a stable configuration for the synthetic devices.
func DefaultOptions() Options {
	return Options{
		Variant: sse.DaCe,
		MaxIter: 10,
		Tol:     1e-5,
		Mixing:  0.8,
		Contacts: rgf.Contacts{
			MuL: 0.2, MuR: -0.2, KT: 0.025,
		},
		PhononKTL: 0.026, PhononKTR: 0.025,
		Eta: 1e-6,
	}
}

// Observables are the physical outputs of a converged run.
type Observables struct {
	// CurrentL/R are the energy-integrated electron contact currents
	// (natural units; positive = into the device).
	CurrentL, CurrentR float64
	// EnergyCurrentL/R are the energy-weighted contact currents
	// ∫E·I(E)dE — the electronic heat injection that self-heating studies
	// track (§1).
	EnergyCurrentL, EnergyCurrentR float64
	// HeatL/R are the integrated phonon energy currents at the contacts.
	HeatL, HeatR float64
	// CurrentPerEnergy is the kz-summed spectral current at the left
	// contact, one entry per energy grid point.
	CurrentPerEnergy []float64
	// DissipationPerAtom is the per-atom electron-phonon particle
	// exchange, the quantity behind the self-heating map of Fig. 1(d).
	DissipationPerAtom []float64
	// EnergyDissipationPerAtom is the energy-weighted exchange
	// (Joule heat delivered to the lattice per atom).
	EnergyDissipationPerAtom []float64
}

// Timings records where a run's wall time went — the per-phase breakdown
// the paper reports in Tables 7 and 8.
type Timings struct {
	GF, SSE time.Duration
}

// Result is the outcome of a self-consistent run.
type Result struct {
	Iterations int
	Converged  bool
	// Recoveries counts the rank failures a fault-tolerant distributed run
	// survived by rebuilding the cluster and resuming from a checkpoint
	// (always zero for serial runs; see RunDistributedFT).
	Recoveries int
	// Residuals[i] is the relative G change after iteration i.
	Residuals []float64
	// Timings is the accumulated per-phase wall time.
	Timings Timings

	GLess, GGtr         *tensor.GTensor
	DLess, DGtr         *tensor.DTensor
	SigmaLess, SigmaGtr *tensor.GTensor
	PiLess, PiGtr       *tensor.DTensor

	Obs Observables

	// EGrid is the active energy grid the result was solved on (nil for
	// plain uniform-grid runs). CheckpointOf copies it into checkpoints
	// so a converged adaptive grid travels with the Σ≷ it produced.
	EGrid *egrid.State
	// Adapt summarizes the adaptive refinement loop that produced the
	// result (nil unless RunAdaptiveCtx ran it).
	Adapt *AdaptReport
}

// Simulator couples a device with solver options and cached operators.
type Simulator struct {
	Dev    *device.Device
	Kernel *sse.Kernel
	Opts   Options

	h, s []*cmat.BlockTri // per kz
	phi  []*cmat.BlockTri // per qz

	// grid is the active energy grid the GF phase solves on: the full
	// fine grid unless the adaptive runner installed a subset (SetGrid).
	grid *egrid.Grid

	// leads stores every grid point's lead self-energies across Born
	// iterations and runs.
	leads leadCache
}

// New builds a simulator, generating and caching H(kz), S(kz), Φ(qz).
func New(dev *device.Device, opts Options) *Simulator {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 1
	}
	if opts.Mixing <= 0 || opts.Mixing > 1 {
		opts.Mixing = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Simulator{Dev: dev, Kernel: sse.NewKernel(dev), Opts: opts}
	p := dev.P
	s.h = make([]*cmat.BlockTri, p.Nkz)
	s.s = make([]*cmat.BlockTri, p.Nkz)
	for kz := 0; kz < p.Nkz; kz++ {
		s.h[kz] = dev.Hamiltonian(kz)
		s.s[kz] = dev.Overlap(kz)
	}
	s.phi = make([]*cmat.BlockTri, p.Nqz)
	for qz := 0; qz < p.Nqz; qz++ {
		s.phi[qz] = dev.Dynamical(qz)
	}
	s.grid = egrid.Uniform(p.NE, p.Emin, p.Emax)
	s.leads = newLeadCache(p.Nkz*p.NE, p.Nqz*p.Nw, opts.Eta)
	return s
}

// SetGrid installs an active energy grid: subsequent GF phases solve the
// electron points only at its active energies (with its quadrature
// weights) and fill the skipped energies by interpolation. The grid must
// live on the device's fine grid. The adaptive runner calls this between
// refinement rounds; a nil grid restores the full uniform grid. The
// stored lead self-energies are indexed on the fine grid, so they stay
// valid across grid changes.
func (s *Simulator) SetGrid(g *egrid.Grid) error {
	p := s.Dev.P
	if g == nil {
		s.grid = egrid.Uniform(p.NE, p.Emin, p.Emax)
		return nil
	}
	if g.NE() != p.NE || g.Emin() != p.Emin || g.Emax() != p.Emax {
		return fmt.Errorf("core: grid over %d points on [%g, %g] does not match device (%d points on [%g, %g])",
			g.NE(), g.Emin(), g.Emax(), p.NE, p.Emin, p.Emax)
	}
	s.grid = g
	return nil
}

// EnergyGrid returns the active energy grid the GF phase currently
// solves on (the full uniform grid unless SetGrid installed a subset).
func (s *Simulator) EnergyGrid() *egrid.Grid { return s.grid }

// scatteringBlocks assembles the per-RGF-block electron scattering matrices
// for one (kz, E) point from the per-atom self-energy tensors (diagonal
// atom blocks only, as in the paper).
func (s *Simulator) scatteringBlocks(kz, e int, sigR, sigL, sigG *tensor.GTensor) rgf.Scattering {
	p := s.Dev.P
	if sigR == nil {
		return rgf.Scattering{}
	}
	bs := p.ElectronBlockSize()
	apb := p.AtomsPerBlock()
	out := rgf.Scattering{
		R:    make([]*cmat.Dense, p.Bnum),
		Less: make([]*cmat.Dense, p.Bnum),
		Gtr:  make([]*cmat.Dense, p.Bnum),
	}
	for blk := 0; blk < p.Bnum; blk++ {
		r := cmat.GetDense(bs, bs)
		l := cmat.GetDense(bs, bs)
		g := cmat.GetDense(bs, bs)
		for la := 0; la < apb; la++ {
			a := blk*apb + la
			off := la * p.Norb
			r.SetSubmatrix(off, off, sigR.Block(kz, e, a))
			l.SetSubmatrix(off, off, sigL.Block(kz, e, a))
			g.SetSubmatrix(off, off, sigG.Block(kz, e, a))
		}
		out.R[blk], out.Less[blk], out.Gtr[blk] = r, l, g
	}
	return out
}

// phononScatteringBlocks assembles the per-RGF-block phonon self-energy
// matrices for one (qz, ω) point. Neighbor couplings within an RGF block
// are kept; the few couplings that straddle block boundaries are dropped
// (a truncation the block-tridiagonal Keldysh recursion requires; the full
// couplings still travel through the SSE data path).
func (s *Simulator) phononScatteringBlocks(qz, w int, piR, piL, piG *tensor.DTensor) rgf.PhononScattering {
	p := s.Dev.P
	if piR == nil {
		return rgf.PhononScattering{}
	}
	bs := p.PhononBlockSize()
	apb := p.AtomsPerBlock()
	out := rgf.PhononScattering{
		R:    make([]*cmat.Dense, p.Bnum),
		Less: make([]*cmat.Dense, p.Bnum),
		Gtr:  make([]*cmat.Dense, p.Bnum),
	}
	for blk := 0; blk < p.Bnum; blk++ {
		out.R[blk] = cmat.GetDense(bs, bs)
		out.Less[blk] = cmat.GetDense(bs, bs)
		out.Gtr[blk] = cmat.GetDense(bs, bs)
	}
	place := func(dst []*cmat.Dense, t *tensor.DTensor, a, f, slot int) {
		blk := s.Dev.BlockOf(a)
		if s.Dev.BlockOf(f) != blk {
			return
		}
		ra := (a - blk*apb) * p.N3D
		rf := (f - blk*apb) * p.N3D
		dst[blk].SetSubmatrix(ra, rf, t.Block(qz, w, a, slot))
	}
	for a := 0; a < p.NA; a++ {
		place(out.R, piR, a, a, p.NB)
		place(out.Less, piL, a, a, p.NB)
		place(out.Gtr, piG, a, a, p.NB)
		for b := 0; b < p.NB; b++ {
			f := s.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			place(out.R, piR, a, f, b)
			place(out.Less, piL, a, f, b)
			place(out.Gtr, piG, a, f, b)
		}
	}
	return out
}

// extractElectron copies the per-atom diagonal blocks of an RGF solution
// into the 5-D tensors at (kz, e).
func (s *Simulator) extractElectron(kz, e int, res *rgf.ElectronResult, gl, gg *tensor.GTensor) {
	p := s.Dev.P
	apb := p.AtomsPerBlock()
	for blk := 0; blk < p.Bnum; blk++ {
		for la := 0; la < apb; la++ {
			a := blk*apb + la
			off := la * p.Norb
			gl.Block(kz, e, a).CopyFrom(res.GLess[blk].Submatrix(off, off+p.Norb, off, off+p.Norb))
			gg.Block(kz, e, a).CopyFrom(res.GGtr[blk].Submatrix(off, off+p.Norb, off, off+p.Norb))
		}
	}
}

// extractPhonon copies the per-atom self blocks and in-block neighbor
// couplings of a phonon RGF solution into the 6-D tensors at (qz, w).
func (s *Simulator) extractPhonon(qz, w int, res *rgf.PhononResult, dl, dg *tensor.DTensor) {
	p := s.Dev.P
	apb := p.AtomsPerBlock()
	grab := func(src []*cmat.Dense, dst *tensor.DTensor, a, f, slot int) {
		blk := s.Dev.BlockOf(a)
		if s.Dev.BlockOf(f) != blk {
			return // cross-block coupling: not available from diagonal RGF blocks
		}
		ra := (a - blk*apb) * p.N3D
		rf := (f - blk*apb) * p.N3D
		dst.Block(qz, w, a, slot).CopyFrom(src[blk].Submatrix(ra, ra+p.N3D, rf, rf+p.N3D))
	}
	for a := 0; a < p.NA; a++ {
		grab(res.DLess, dl, a, a, p.NB)
		grab(res.DGtr, dg, a, a, p.NB)
		for b := 0; b < p.NB; b++ {
			f := s.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			grab(res.DLess, dl, a, f, b)
			grab(res.DGtr, dg, a, f, b)
		}
	}
}

// gfJob is one grid point of the GF phase: an electron (kz, E) point, or
// a phonon (qz, ω) point when e < 0.
type gfJob struct{ kz, e, qz, w int }

// gfState is one GF phase in flight. Each job writes only its own grid
// point of the tensors, its own lead slot and its own contact pair;
// finish reduces the pairs in job order, so the observables are a bitwise
// function of the inputs whatever the worker schedule.
type gfState struct {
	sim              *Simulator
	sigR, sigL, sigG *tensor.GTensor
	piR, piL, piG    *tensor.DTensor
	// jobs lists the electron points of the active energy grid, then the
	// phonon points.
	jobs []gfJob
	// contact[i] is job i's (CurrentL, CurrentR) or (HeatL, HeatR).
	contact        [][2]float64
	gl, gg         *tensor.GTensor
	dl, dg         *tensor.DTensor
	electronPoints int
}

// newGFState lists the phase's jobs and allocates its output tensors.
func (s *Simulator) newGFState(sigR, sigL, sigG *tensor.GTensor, piR, piL, piG *tensor.DTensor) *gfState {
	p := s.Dev.P
	s.leads.sync(s.Opts.Eta)
	// The electron points come from the active energy grid — the full
	// fine grid unless the adaptive runner installed a subset.
	activeE := s.grid.Active()
	jobs := make([]gfJob, 0, p.Nkz*len(activeE)+p.Nqz*p.Nw)
	for kz := 0; kz < p.Nkz; kz++ {
		for _, e := range activeE {
			jobs = append(jobs, gfJob{kz: kz, e: e})
		}
	}
	ne := len(jobs)
	for qz := 0; qz < p.Nqz; qz++ {
		for w := 0; w < p.Nw; w++ {
			jobs = append(jobs, gfJob{e: -1, qz: qz, w: w})
		}
	}
	return &gfState{
		sim: s, sigR: sigR, sigL: sigL, sigG: sigG, piR: piR, piL: piL, piG: piG,
		jobs: jobs, contact: make([][2]float64, len(jobs)), electronPoints: ne,
		gl: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		gg: tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		dl: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		dg: tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
	}
}

// runPool solves jobs lo..hi−1 over the persistent worker pool (at most
// Workers concurrent points) and returns the first error. Cancellation is
// checked per grid point, so a cancelled run drains within one RGF solve
// rather than one full phase.
func (g *gfState) runPool(ctx context.Context, lo, hi int) error {
	var next atomic.Int64
	next.Store(int64(lo))
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	tasks := make([]pool.Task, min(g.sim.Opts.Workers, hi-lo))
	for i := range tasks {
		tasks[i] = func() {
			for {
				idx := int(next.Add(1)) - 1
				if idx >= hi {
					return
				}
				if cerr := ctx.Err(); cerr != nil {
					fail(fmt.Errorf("core: GF phase cancelled: %w", cerr))
					return
				}
				var err error
				if g.jobs[idx].e >= 0 {
					err = g.electron(idx)
				} else {
					err = g.phonon(idx)
				}
				if err != nil {
					fail(err)
				}
			}
		}
	}
	pool.Do(tasks...)
	return firstErr
}

// electron solves electron job i on this goroutine.
func (g *gfState) electron(i int) error {
	s, j := g.sim, g.jobs[i]
	fail := func(err error) error { return fmt.Errorf("electron point (kz=%d, E=%d): %w", j.kz, j.e, err) }
	leads, err := s.electronLeads(j.kz, j.e)
	if err != nil {
		return fail(err)
	}
	scat := s.scatteringBlocks(j.kz, j.e, g.sigR, g.sigL, g.sigG)
	res, err := rgf.SolveElectronWith(nil, true, leads, s.h[j.kz], s.s[j.kz],
		s.Dev.P.Energy(j.e), scat, s.Opts.Contacts, s.Opts.Eta)
	scat.Release()
	if err != nil {
		return fail(err)
	}
	g.keepElectron(i, res)
	return nil
}

// keepElectron stores electron job i's solution and releases it.
func (g *gfState) keepElectron(i int, res *rgf.ElectronResult) {
	j := g.jobs[i]
	g.sim.extractElectron(j.kz, j.e, res, g.gl, g.gg)
	g.contact[i] = [2]float64{res.CurrentL, res.CurrentR}
	res.Release()
}

// phonon solves phonon job i on this goroutine.
func (g *gfState) phonon(i int) error {
	s, j := g.sim, g.jobs[i]
	fail := func(err error) error { return fmt.Errorf("phonon point (qz=%d, ω=%d): %w", j.qz, j.w, err) }
	leads, err := s.phononLeads(j.qz, j.w)
	if err != nil {
		return fail(err)
	}
	scat := s.phononScatteringBlocks(j.qz, j.w, g.piR, g.piL, g.piG)
	res, err := rgf.SolvePhononWith(leads, s.phi[j.qz], s.phononEnergy(j.w), scat,
		rgf.PhononContacts{KTL: s.Opts.PhononKTL, KTR: s.Opts.PhononKTR}, s.Opts.Eta)
	scat.Release()
	if err != nil {
		return fail(err)
	}
	s.extractPhonon(j.qz, j.w, res, g.dl, g.dg)
	g.contact[i] = [2]float64{res.HeatL, res.HeatR}
	res.Release()
	return nil
}

// finish reduces the contact pairs in job order into the observables and,
// on a partial grid, fills the skipped energies of G^≷ (and of the
// spectral current, for reporting) by linear interpolation between the
// nearest solved neighbors: the SSE convolution consumes every fine-grid
// energy, so the tensors must be dense even when the solves are not.
func (g *gfState) finish() (o Observables) {
	s := g.sim
	p := s.Dev.P
	grid := s.grid
	// Each point carries its quadrature weight explicitly. On the full
	// grid every weight is bitwise the uniform ΔE (the egrid weight pin),
	// so this reproduces the historical uniform numbers exactly.
	o.CurrentPerEnergy = make([]float64, p.NE)
	eWeight := p.EStep() / float64(p.Nkz)
	for i, j := range g.jobs {
		c := g.contact[i]
		if j.e < 0 {
			o.HeatL += c[0] * eWeight
			o.HeatR += c[1] * eWeight
			continue
		}
		we := grid.Weight(j.e) / float64(p.Nkz)
		o.CurrentL += c[0] * we
		o.CurrentR += c[1] * we
		o.EnergyCurrentL += p.Energy(j.e) * c[0] * we
		o.EnergyCurrentR += p.Energy(j.e) * c[1] * we
		o.CurrentPerEnergy[j.e] += c[0]
	}
	if !grid.Full() {
		interpolateInactiveG(g.gl, grid)
		interpolateInactiveG(g.gg, grid)
		grid.InterpolateValues(o.CurrentPerEnergy)
	}
	return o
}

// Run executes the self-consistent Born loop: Σ = Π = 0, GF phase, SSE
// phase, mix, repeat until the Green's functions stop changing (§2). It is
// RunCtx under context.Background() — uncancellable, for batch callers.
func (s *Simulator) Run() (*Result, error) { return s.RunCtx(context.Background()) }

// RunCtx is Run bound to a context. Cancellation is observed at every Born
// iteration boundary and inside the GF phase's per-grid-point loop, so a
// cancelled run returns (with an error wrapping ctx.Err()) well within one
// Born iteration. The partially computed result is discarded; callers that
// need restartability should checkpoint via OnIteration or use the
// fault-tolerant distributed runner.
func (s *Simulator) RunCtx(ctx context.Context) (*Result, error) {
	res, _, err := s.born(ctx, DistConfig{})
	return res, err
}

// relChange returns max|a−b| / (1 + max|b|).
func relChange(a, b *tensor.GTensor) float64 {
	return a.MaxAbsDiff(b) / (1 + maxAbsG(b))
}

func maxAbsG(g *tensor.GTensor) float64 {
	var m float64
	for _, v := range g.Data {
		if a := math.Hypot(real(v), imag(v)); a > m {
			m = a
		}
	}
	return m
}

func mixG(dst, fresh *tensor.GTensor, mix float64) {
	c := complex(mix, 0)
	for i := range dst.Data {
		dst.Data[i] = (1-c)*dst.Data[i] + c*fresh.Data[i]
	}
}

func mixD(dst, fresh *tensor.DTensor, mix float64) {
	c := complex(mix, 0)
	for i := range dst.Data {
		dst.Data[i] = (1-c)*dst.Data[i] + c*fresh.Data[i]
	}
}

// concatSelfEnergies flattens the four self-energy tensors into one vector
// for the Anderson mixer.
func concatSelfEnergies(sl, sg *tensor.GTensor, pl, pg *tensor.DTensor) []complex128 {
	out := make([]complex128, 0, 2*len(sl.Data)+2*len(pl.Data))
	out = append(out, sl.Data...)
	out = append(out, sg.Data...)
	out = append(out, pl.Data...)
	out = append(out, pg.Data...)
	return out
}

// scatterSelfEnergies is the inverse of concatSelfEnergies.
func scatterSelfEnergies(v []complex128, sl, sg *tensor.GTensor, pl, pg *tensor.DTensor) {
	n := len(sl.Data)
	m := len(pl.Data)
	copy(sl.Data, v[:n])
	copy(sg.Data, v[n:2*n])
	copy(pl.Data, v[2*n:2*n+m])
	copy(pg.Data, v[2*n+m:])
}

// dissipationPerAtom evaluates Tr[Σ^<_S·G^> − Σ^>_S·G^<] per atom, summed
// over the (kz, E) grid — the local electron-phonon exchange that paints
// the self-heating map — both unweighted (particle) and energy-weighted
// (Joule heat).
func (s *Simulator) dissipationPerAtom(r *Result) (particle, energy []float64) {
	p := s.Dev.P
	particle = make([]float64, p.NA)
	energy = make([]float64, p.NA)
	if r.SigmaLess == nil || r.GLess == nil {
		return particle, energy
	}
	// Quadrature weights come from the active grid (bitwise ΔE on the
	// full grid); inactive energies carry zero weight and are skipped.
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			w := s.grid.Weight(e) / float64(p.Nkz)
			if w == 0 {
				continue
			}
			for a := 0; a < p.NA; a++ {
				t := r.SigmaLess.Block(kz, e, a).TraceMul(r.GGtr.Block(kz, e, a)) -
					r.SigmaGtr.Block(kz, e, a).TraceMul(r.GLess.Block(kz, e, a))
				particle[a] += real(t) * w
				energy[a] += real(t) * w * p.Energy(e)
			}
		}
	}
	return particle, energy
}
