package main

import (
	"context"
	_ "embed"
	"fmt"
	"math"
	"runtime"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/obs"
	"negfsim/internal/perfmodel"
	"negfsim/internal/sse"
)

// bornJSON is examples/run.json (nanowire, NE=16, Nkz=3, linear mixing)
// tightened to tol 1e-6 and max_iter 30, frozen here so that the workload
// stays the same when the example changes.
//
//go:embed configs/born.json
var bornJSON []byte

// bornRef pins the converged contact currents of the born config, measured
// with the serial solver. Both born workloads must reproduce them within
// refTol, so born-dist agrees with born-serial.
var bornRef = struct{ CurrentL, CurrentR float64 }{
	CurrentL: 0.15546490862786844,
	CurrentR: -0.14991653976339706,
}

// refTol is the relative tolerance of the answer checks that compare two
// solves of the same problem from the same start.
const refTol = 1e-8

// resumeTol is the relative tolerance between a solve resumed from a
// converged checkpoint and the solve that wrote it: the resumed Born loop
// keeps iterating towards the fixed point, and its answer may move by up
// to the born config's convergence tolerance.
const resumeTol = 1e-6

// setupRepeats is how many times set-up is repeated per run; set-up time
// is their median.
const setupRepeats = 21

// minRounds bounds the measured rounds from below when --seconds is
// short: solve pairs for born-*, passes of the request stream for
// serve-mix.
const minRounds = 3

// bornWorkload is one born-* workload: the config and the simulator built
// from it.
type bornWorkload struct {
	cfg  core.RunConfig
	dist bool
	sim  *core.Simulator
	// sseBytes is the measured traffic of one distributed SSE phase
	// (born-dist only; see measureSSEBytes).
	sseBytes int64
}

func bornConfig(dist bool, workers int) (core.RunConfig, error) {
	cfg, err := core.ParseRunConfig(bornJSON)
	if err != nil {
		return core.RunConfig{}, err
	}
	cfg.Workers = workers
	if dist {
		cfg.Dist, cfg.Space = "1x2", 2
	}
	return *cfg, cfg.Validate()
}

// build constructs the device and the simulator and reports the time of
// each: the two halves of set-up.
func (b *bornWorkload) build() (devTime, newTime time.Duration, err error) {
	opts, err := b.cfg.Options()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	dev, err := b.cfg.Device.Build()
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	b.sim = core.New(dev, opts)
	return t1.Sub(t0), time.Since(t1), nil
}

// solve runs one converged Born solve, from zero self-energies or resumed
// from ck, and returns the bytes the distributed path exchanged.
func (b *bornWorkload) solve(ck *core.Checkpoint) (*core.Result, int64, error) {
	ctx := context.Background()
	if b.dist {
		dc, _, err := b.cfg.DistConfig()
		if err != nil {
			return nil, 0, err
		}
		dc.Resume = ck
		return b.sim.RunDistributedFTCtx(ctx, dc)
	}
	if ck != nil {
		res, err := b.sim.RunFromCtx(ctx, ck)
		return res, 0, err
	}
	res, err := b.sim.RunCtx(ctx)
	return res, 0, err
}

// verify checks a solve from zero self-energies: converged, currents at
// the pinned reference, and for born-dist the exact exchanged bytes.
func (b *bornWorkload) verify(res *core.Result, bytes int64, err error) error {
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("not converged after %d iterations", res.Iterations)
	}
	if err := near("CurrentL", res.Obs.CurrentL, bornRef.CurrentL, refTol); err != nil {
		return err
	}
	if err := near("CurrentR", res.Obs.CurrentR, bornRef.CurrentR, refTol); err != nil {
		return err
	}
	return b.verifyBytes(res, bytes)
}

// verifyBytes checks the exact traffic of a born-dist solve: every Born
// iteration's GF phase runs one spatial retarded solve per (kz, E) point,
// which perfmodel counts exactly, and every iteration but the converged
// last runs one distributed SSE phase.
func (b *bornWorkload) verifyBytes(res *core.Result, bytes int64) error {
	if !b.dist {
		return nil
	}
	gf := int64(perfmodel.SpatialGFVolume(b.sim.Dev.P, b.cfg.Space))
	if want := int64(res.Iterations)*gf + int64(res.Iterations-1)*b.sseBytes; bytes != want {
		return fmt.Errorf("exchanged %d bytes in %d iterations, want %d", bytes, res.Iterations, want)
	}
	return nil
}

// measureSSEBytes counts the bytes of one distributed SSE phase on the
// workload's grid, on the tensors of a converged result. The exchange
// pattern depends on the decomposition only, not on the values.
func (b *bornWorkload) measureSSEBytes(res *core.Result) error {
	te, ta, err := b.cfg.DistGrid()
	if err != nil {
		return err
	}
	in := sse.PhaseInput{GLess: res.GLess, GGtr: res.GGtr, DLess: res.DLess, DGtr: res.DGtr}
	dr, err := b.sim.DistributedSSE(in, te, ta)
	if err != nil {
		return err
	}
	b.sseBytes = dr.MeasuredBytes
	return nil
}

// verifyResumed checks a solve resumed from a converged checkpoint
// against the solve that wrote it.
func (b *bornWorkload) verifyResumed(res, from *core.Result, bytes int64, err error) error {
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("resumed solve not converged after %d iterations", res.Iterations)
	}
	if err := near("CurrentL", res.Obs.CurrentL, from.Obs.CurrentL, resumeTol); err != nil {
		return err
	}
	if err := near("CurrentR", res.Obs.CurrentR, from.Obs.CurrentR, resumeTol); err != nil {
		return err
	}
	return b.verifyBytes(res, bytes)
}

// near reports whether got is within tol of want, relative.
func near(what string, got, want, tol float64) error {
	if math.IsNaN(got) || math.Abs(got-want) > tol*math.Abs(want) {
		return fmt.Errorf("%s = %.17g, want %.17g (rel. tol %g)", what, got, want, tol)
	}
	return nil
}

// runBorn measures a born-* workload. Untraced, each measured round is a
// solve from zero self-energies (a miss: the full Born loop) followed by a
// solve resumed from that solve's converged checkpoint (a hit: the stored
// state answers a repeated request in one or two iterations).
func runBorn(r *run, dist bool) error {
	cfg, err := bornConfig(dist, r.nproc)
	if err != nil {
		return err
	}
	b := &bornWorkload{cfg: cfg, dist: dist}
	var setups, builds, news []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		devTime, newTime, err := b.build()
		if err != nil {
			return err
		}
		setups = append(setups, seconds(devTime+newTime))
		builds = append(builds, seconds(devTime))
		news = append(news, seconds(newTime))
	}

	// Warm-up: one full solve, not timed. Its bytes are checked once the
	// per-phase SSE traffic is known.
	res, bytes, err := b.solve(nil)
	if err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	if dist {
		if err := b.measureSSEBytes(res); err != nil {
			return fmt.Errorf("distributed SSE: %w", err)
		}
	}
	r.check("warm-up solve", b.verify(res, bytes, nil))

	if r.trace {
		r.set("device.build_s", median(builds))
		r.set("core.new_s", median(news))
		return bornTraced(r, b)
	}

	var cold, warm, all, peaks []float64
	start := time.Now()
	deadline := start.Add(r.seconds)
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		runtime.GC()
		hs := startHeapSampler()
		t0 := time.Now()
		res, bytes, err := b.solve(nil)
		d := time.Since(t0)
		peak := hs.Stop()
		r.check("solve", b.verify(res, bytes, err))
		if err != nil {
			continue
		}
		cold = append(cold, seconds(d))
		peaks = append(peaks, peak)

		t1 := time.Now()
		again, bytes, err := b.solve(core.CheckpointOf(cfg.Device, res))
		dw := time.Since(t1)
		r.check("resumed solve", b.verifyResumed(again, res, bytes, err))
		warm = append(warm, seconds(dw))
	}
	elapsed := time.Since(start)
	all = append(append(all, cold...), warm...)

	r.set("setup_s", median(setups))
	r.set("solve_s", median(cold))
	r.set("heap_peak_mb", median(peaks))
	r.set("jobs_per_s", float64(len(all))/elapsed.Seconds())
	r.set("job_ms_p90", 1000*quantile(all, 0.9))
	r.set("hit_ms_p50", 1000*median(warm))
	r.set("miss_ms_p50", 1000*median(cold))
	return nil
}

// bornTraced is the traced run of a born-* workload: alternating untraced
// and traced solves (their difference is the tracing overhead), the
// Born-loop phase breakdown from Options.OnIteration, the cmat GEMM
// counters, and the layer replay on the converged result.
func bornTraced(r *run, b *bornWorkload) error {
	var plain, traced, gf, sse, mix, self []float64
	var last *core.Result
	var gemm gemmCount
	iters := -1
	deadline := time.Now().Add(r.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		t0 := time.Now()
		res, bytes, err := b.solve(nil)
		plain = append(plain, seconds(time.Since(t0)))
		r.check("solve", b.verify(res, bytes, err))

		var stats []core.IterStats
		b.sim.Opts.OnIteration = func(st core.IterStats) { stats = append(stats, st) }
		runtime.GC()
		c0 := gemmCounts()
		obs.Enable()
		t1 := time.Now()
		res, bytes, err = b.solve(nil)
		d := time.Since(t1)
		obs.Disable()
		c1 := gemmCounts()
		b.sim.Opts.OnIteration = nil
		r.check("traced solve", b.verify(res, bytes, err))
		if err != nil {
			continue
		}
		traced = append(traced, seconds(d))
		var g, s, m time.Duration
		for _, st := range stats {
			g += st.GF
			s += st.SSE
			m += st.Mix
		}
		gf = append(gf, seconds(g))
		sse = append(sse, seconds(s))
		mix = append(mix, seconds(m))
		self = append(self, seconds(d-g-s-m))
		r.check("iteration records", func() error {
			if len(stats) != res.Iterations {
				return fmt.Errorf("%d iteration records for %d iterations", len(stats), res.Iterations)
			}
			if iters >= 0 && res.Iterations != iters {
				return fmt.Errorf("%d Born iterations, an earlier solve took %d", res.Iterations, iters)
			}
			return nil
		}())
		iters = res.Iterations
		gemm = c1.sub(c0)
		last = res
	}
	if last == nil {
		return fmt.Errorf("no traced solve succeeded")
	}
	r.set("trace.overhead_s", median(traced)-median(plain))
	r.set("core.born_iters", float64(iters))
	r.set("core.gf_s", median(gf))
	r.set("core.sse_s", median(sse))
	r.set("core.mix_s", median(mix))
	r.set("core.self_s", median(self))
	r.set("cmat.gemm_blocked", float64(gemm.blocked))
	r.set("cmat.gemm_naive", float64(gemm.naive))
	noServiceTier(r)
	return replayLayers(r, b.sim, last)
}

type gemmCount struct{ blocked, naive int64 }

func (g gemmCount) sub(o gemmCount) gemmCount {
	return gemmCount{blocked: g.blocked - o.blocked, naive: g.naive - o.naive}
}

// gemmCounts reads the cmat GEMM dispatch counters, which count only while
// obs recording is enabled.
func gemmCounts() gemmCount {
	return gemmCount{
		blocked: obs.GetCounter("cmat.gemm.blocked").Value(),
		naive:   obs.GetCounter("cmat.gemm.naive").Value(),
	}
}

// noServiceTier sets the serve.* and front.* metrics of a workload that
// does not use the service tier: no work, so zero.
func noServiceTier(r *run) {
	for _, name := range []string{
		"serve.queue_ms_p50", "serve.run_ms_p50", "serve.iters_warm_p50", "serve.iters_cold_p50",
		"front.submit_ms_p50", "front.result_ms_p50", "front.hit_ratio", "front.join_ratio", "front.warm_ratio",
	} {
		r.set(name, 0)
	}
}
