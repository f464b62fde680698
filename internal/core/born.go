package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"negfsim/internal/comm"
	"negfsim/internal/obs"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// Fault-tolerance telemetry of the Born loop (see docs/OBSERVABILITY.md):
// recovery events and latency, and checkpoint traffic. The counters are
// global and cumulative, like every obs instrument.
var (
	obsRecoveries   = obs.GetCounter("core.recoveries")
	obsCkptSaves    = obs.GetCounter("core.checkpoint_saves")
	obsCkptRestores = obs.GetCounter("core.checkpoint_restores")
	obsSpanRecovery = obs.GetTimer("core.recovery")
)

// born is the one Born loop behind every run entrypoint: Σ = Π = 0 (or
// cfg.Resume's), GF phase, SSE phase, mix, repeat until the Green's
// functions stop changing (§2). cfg picks the executors — the GF phase on
// the worker pool or split across a spatial cluster (Space ≥ 2), the SSE
// phase on the shared-memory tiles or under the TE×TA decomposition — which
// change data movement, never values (§4.1). It returns the bytes the
// cluster executors exchanged; a cfg naming one must pass checkDist.
func (s *Simulator) born(ctx context.Context, cfg DistConfig) (*Result, int64, error) {
	res := &Result{}
	b := &bornRun{s: s, cfg: cfg, res: res, te: cfg.TE, ta: cfg.TA}
	if cfg.Space >= 2 {
		b.space = cfg.Space
	}
	if s.Opts.Mixer == Anderson {
		b.anderson = newAndersonState(cmp.Or(max(s.Opts.AndersonHistory, 0), 3))
	}
	if r := cfg.Resume; r != nil {
		if err := r.CompatibleDevice(s.Dev); err != nil {
			return nil, 0, err
		}
		b.ck = &memCheckpoint{Checkpoint: s.checkpointOf(0, r.SigmaLess, r.SigmaGtr, r.PiLess, r.PiGtr)}
		b.rewind()
	}
	for iter := 0; iter < s.Opts.MaxIter; iter++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, b.bytes, b.cancelled(iter, cerr)
		}
		st := IterStats{Iter: iter + 1, Residual: math.NaN()}
		var snap []obs.TimerStat
		if s.Opts.OnIteration != nil && obs.Enabled() {
			snap = obs.TimerStats()
		}
		t0 := time.Now()
		g, err := b.runGF(ctx, iter)
		if err != nil {
			if iter, err = b.recover(ctx, iter, err, true); err != nil {
				return nil, b.bytes, err
			}
			continue
		}
		res.Obs = g.finish()
		st.GF = time.Since(t0)
		res.Timings.GF += st.GF
		obsSpanGF.Observe(st.GF)
		res.GLess, res.GGtr, res.DLess, res.DGtr = g.gl, g.gg, g.dl, g.dg
		res.Iterations = iter + 1

		if b.prevL != nil {
			r := relChange(b.prevL, g.gl)
			if rg := relChange(b.prevG, g.gg); rg > r {
				r = rg
			}
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return res, b.bytes, errors.New("core: Born iteration diverged (non-finite Green's functions)")
			}
			res.Residuals = append(res.Residuals, r)
			st.Residual = r
			if r < s.Opts.Tol {
				res.Converged = true
				st.Converged = true
				s.emitIterStats(&st, t0, snap)
				break
			}
		}
		b.prevL, b.prevG = g.gl, g.gg

		t1 := time.Now()
		out, err := b.runSSE(ctx, iter, sse.PhaseInput{GLess: g.gl, GGtr: g.gg, DLess: g.dl, DGtr: g.dg})
		if err != nil {
			if iter, err = b.recover(ctx, iter, err, false); err != nil {
				return nil, b.bytes, err
			}
			continue
		}
		st.SSE = time.Since(t1)
		res.Timings.SSE += st.SSE
		obsSpanSSE.Observe(st.SSE)
		t2 := time.Now()
		b.mix(out)
		st.Mix = time.Since(t2)
		obsSpanMix.Observe(st.Mix)
		res.SigmaLess, res.SigmaGtr = b.sigL, b.sigG
		res.PiLess, res.PiGtr = b.piL, b.piG
		if err := b.checkpoint(iter); err != nil {
			return nil, b.bytes, err
		}
		s.emitIterStats(&st, t0, snap)
	}
	res.Obs.DissipationPerAtom, res.Obs.EnergyDissipationPerAtom = s.dissipationPerAtom(res)
	return res, b.bytes, nil
}

// bornRun is one Born loop in flight: its self-energies, the previous G≷,
// the mixer, and the executors' plan and recovery state.
type bornRun struct {
	s   *Simulator
	cfg DistConfig
	res *Result

	sigR, sigL, sigG *tensor.GTensor
	piR, piL, piG    *tensor.DTensor
	prevL, prevG     *tensor.GTensor
	anderson         *andersonState

	// te×ta is the SSE rank grid and space the spatial rank count; zero
	// selects the shared-memory executor. Recovery shrinks them.
	te, ta, space int
	ck            *memCheckpoint // restart state; nil restarts from Σ = Π = 0
	bytes         int64          // cluster traffic, failed calls included
	// last is the newest per-iteration cluster, the owner of the per-rank
	// byte gauges, which a cancelled run unregisters.
	last *comm.Cluster
}

// memCheckpoint is the in-memory restart state: deep copies of the mixed
// self-energies of the last completed iteration (or the resume seed), and
// the G≷ (never mutated after the GF phase) and residual count that go
// with them, so a replayed iteration keeps the residual history.
type memCheckpoint struct {
	*Checkpoint
	nResiduals  int
	gLess, gGtr *tensor.GTensor
}

// runGF runs iteration iter's GF phase on its executor: the worker pool,
// or the spatial split across a cluster of space ranks.
func (b *bornRun) runGF(ctx context.Context, iter int) (*gfState, error) {
	g := b.s.newGFState(b.sigR, b.sigL, b.sigG, b.piR, b.piL, b.piG)
	if b.space == 0 {
		return g, g.runPool(ctx, 0, len(g.jobs))
	}
	return g, b.onCluster(ctx, iter, b.space, func(cl *comm.Cluster) error { return g.runSpatial(ctx, cl) })
}

// runSSE runs iteration iter's SSE phase on its executor: the options'
// variant on the shared-memory tiles, or the DaCe tiles on a TE×TA cluster.
func (b *bornRun) runSSE(ctx context.Context, iter int, in sse.PhaseInput) (out sse.PhaseOutput, err error) {
	if b.te == 0 {
		return b.s.Kernel.ComputePhaseParallel(in, b.s.Opts.Variant, b.s.Opts.Workers), nil
	}
	err = b.onCluster(ctx, iter, b.te*b.ta, func(cl *comm.Cluster) error {
		d, err := b.s.distributedSSEOn(cl, in, b.te, b.ta)
		if err == nil {
			out = sse.PhaseOutput{SigmaLess: d.SigmaLess, SigmaGtr: d.SigmaGtr, PiLess: d.PiLess, PiGtr: d.PiGtr}
		}
		return err
	})
	return out, err
}

// onCluster runs one executor call of iteration iter on the caller's
// persistent cluster, else on a fresh in-process one built on ctx, arming
// the fault plan on the first cluster of iteration FaultIter.
func (b *bornRun) onCluster(ctx context.Context, iter, ranks int, run func(*comm.Cluster) error) error {
	cl := b.cfg.Cluster
	if cl == nil {
		cl = comm.NewClusterCtx(ctx, ranks)
		b.last = cl
	}
	if b.cfg.CommTimeout > 0 {
		cl.SetTimeout(b.cfg.CommTimeout)
	}
	if b.cfg.Fault != nil && iter == b.cfg.FaultIter {
		cl.InjectFaults(b.cfg.Fault)
		b.cfg.Fault = nil // fires once
	}
	before := cl.TotalBytes()
	err := run(cl)
	b.bytes += cl.TotalBytes() - before
	return err
}

// recover handles an executor failure in iteration iter. Cancellation is
// terminal, never a rank failure. A rank death within MaxRecoveries backs
// off, shrinks the failed executor (the spatial one if spatial) over the
// survivors and rewinds, returning the loop index to continue from.
func (b *bornRun) recover(ctx context.Context, iter int, err error, spatial bool) (int, error) {
	if cerr := ctx.Err(); cerr != nil {
		return iter, b.cancelled(iter, cerr)
	}
	if !errors.Is(err, comm.ErrRankDead) {
		return iter, err
	}
	if b.res.Recoveries >= cmp.Or(b.cfg.MaxRecoveries, 2) {
		return iter, fmt.Errorf("core: giving up after %d recoveries: %w", b.res.Recoveries, err)
	}
	b.res.Recoveries++
	obsRecoveries.Inc()
	sp := obsSpanRecovery.Start()
	defer sp.End()
	time.Sleep(cmp.Or(b.cfg.RetryBackoff, 10*time.Millisecond) * time.Duration(b.res.Recoveries))
	switch {
	case b.cfg.Cluster != nil:
		// A dead peer process leaves no cluster to re-derive a grid or a
		// split over: finish on the shared-memory executors.
		b.te, b.ta, b.space = 0, 0, 0
	case spatial:
		if b.space--; b.space < 2 {
			b.space = 0
		}
	default:
		b.te, b.ta = b.s.deriveGrid(b.te*b.ta - 1)
	}
	obsCkptRestores.Inc()
	return b.rewind(), nil
}

// cancelled ends a run cancelled in iteration iter, releasing the gauge
// series of its newest per-iteration cluster.
func (b *bornRun) cancelled(iter int, cerr error) error {
	if b.last != nil {
		b.last.Unregister()
	}
	return fmt.Errorf("core: run cancelled in iteration %d: %w", iter+1, cerr)
}

// mix folds the SSE phase's fresh self-energies into the loop's — Anderson,
// or linear, where a cold start takes the first iteration's whole — and
// rebuilds their retarded parts.
func (b *bornRun) mix(out sse.PhaseOutput) {
	sse.AntiHermitize(out.SigmaLess)
	sse.AntiHermitize(out.SigmaGtr)
	beta := b.s.Opts.Mixing
	switch {
	case b.anderson != nil:
		if b.sigL == nil {
			g, d := out.SigmaLess, out.PiLess
			b.sigL = tensor.NewGTensor(g.Nkz, g.NE, g.NA, g.Norb)
			b.sigG = tensor.NewGTensor(g.Nkz, g.NE, g.NA, g.Norb)
			b.piL = tensor.NewDTensor(d.Nqz, d.Nw, d.NA, d.NB, d.N3D)
			b.piG = tensor.NewDTensor(d.Nqz, d.Nw, d.NA, d.NB, d.N3D)
		}
		x := concatSelfEnergies(b.sigL, b.sigG, b.piL, b.piG)
		g := concatSelfEnergies(out.SigmaLess, out.SigmaGtr, out.PiLess, out.PiGtr)
		scatterSelfEnergies(b.anderson.update(x, g, beta), b.sigL, b.sigG, b.piL, b.piG)
	case b.sigL == nil:
		b.sigL, b.sigG = out.SigmaLess, out.SigmaGtr
		b.piL, b.piG = out.PiLess, out.PiGtr
	default:
		mixG(b.sigL, out.SigmaLess, beta)
		mixG(b.sigG, out.SigmaGtr, beta)
		mixD(b.piL, out.PiLess, beta)
		mixD(b.piG, out.PiGtr, beta)
	}
	b.sigR = sse.Retarded(b.sigL, b.sigG)
	b.piR = sse.RetardedD(b.piL, b.piG)
}

// checkpoint snapshots completed iteration iter while a cluster executor
// can still fail, and persists it when CheckpointPath is set. A run on the
// shared-memory executors alone clones nothing.
func (b *bornRun) checkpoint(iter int) error {
	path := b.cfg.CheckpointPath
	if b.te == 0 && b.space == 0 && path == "" {
		return nil
	}
	b.ck = &memCheckpoint{
		Checkpoint: b.s.checkpointOf(iter+1, b.sigL.Clone(), b.sigG.Clone(), b.piL.Clone(), b.piG.Clone()),
		nResiduals: len(b.res.Residuals), gLess: b.prevL, gGtr: b.prevG,
	}
	obsCkptSaves.Inc()
	if path != "" {
		return saveCheckpointFile(path, b.ck.Checkpoint)
	}
	return nil
}

// rewind resets the loop to its restart state and returns the loop index
// to continue from (the loop increment lands on the unfinished iteration).
func (b *bornRun) rewind() int {
	ck := b.ck
	if ck == nil {
		b.sigR, b.sigL, b.sigG, b.piR, b.piL, b.piG = nil, nil, nil, nil, nil, nil
		b.prevL, b.prevG = nil, nil
		b.res.Residuals = b.res.Residuals[:0]
		return -1
	}
	b.sigL, b.sigG = ck.SigmaLess.Clone(), ck.SigmaGtr.Clone()
	b.piL, b.piG = ck.PiLess.Clone(), ck.PiGtr.Clone()
	b.sigR = sse.Retarded(b.sigL, b.sigG)
	b.piR = sse.RetardedD(b.piL, b.piG)
	b.prevL, b.prevG = ck.gLess, ck.gGtr
	b.res.Residuals = b.res.Residuals[:ck.nResiduals]
	return ck.Iterations - 1
}

// emitIterStats completes an iteration's stats (wall time, span deltas) and
// delivers them to the OnIteration hook, if any. iterStart is the instant
// the iteration began; snap is the obs timer snapshot taken then (nil when
// obs recording was off or no hook is set).
func (s *Simulator) emitIterStats(st *IterStats, iterStart time.Time, snap []obs.TimerStat) {
	if s.Opts.OnIteration == nil {
		return
	}
	st.Wall = time.Since(iterStart)
	if snap != nil {
		st.Spans = obs.TimerDelta(snap)
	}
	s.Opts.OnIteration(*st)
}

// checkpointOf captures self-energies of this simulator's device, and its
// active energy grid when that is partial, as a restartable Checkpoint.
func (s *Simulator) checkpointOf(iterations int, sigL, sigG *tensor.GTensor, piL, piG *tensor.DTensor) *Checkpoint {
	ck := &Checkpoint{
		Params: s.Dev.P, Kind: s.Dev.Kind, DevFP: s.Dev.Fingerprint(),
		Iterations: iterations,
		SigmaLess:  sigL, SigmaGtr: sigG,
		PiLess: piL, PiGtr: piG,
	}
	if !s.grid.Full() {
		ck.EGrid = s.grid.State()
	}
	return ck
}

// saveCheckpointFile persists a checkpoint as a gob file, written
// atomically (temp file + rename) so a crash mid-write never corrupts the
// previous checkpoint.
func saveCheckpointFile(path string, ck *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := ck.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}
