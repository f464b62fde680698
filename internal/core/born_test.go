package core

import (
	"math"
	"testing"

	"negfsim/internal/comm"
	"negfsim/internal/device"
)

// bornPaths are the execution paths of the one Born loop: the zero
// DistConfig runs the serial entrypoint, the others the distributed one.
var bornPaths = []struct {
	name string
	cfg  DistConfig
}{
	{"serial", DistConfig{}},
	{"dist 2x2", DistConfig{TE: 2, TA: 2}},
	{"dist 1x2 + space 2", DistConfig{TE: 1, TA: 2, Space: 2}},
	{"space 2", DistConfig{Space: 2}},
}

// runPath runs sim on one execution path.
func runPath(t *testing.T, sim *Simulator, cfg DistConfig) *Result {
	t.Helper()
	var res *Result
	var err error
	if cfg == (DistConfig{}) {
		res, err = sim.Run()
	} else {
		res, _, err = sim.RunDistributedFT(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// convergingOpts are options under which the reduced Mini device of
// leadSim converges in a handful of iterations with either mixer.
func convergingOpts(mixer MixerKind) Options {
	opts := DefaultOptions()
	opts.MaxIter = 10
	opts.Tol = 1e-3
	opts.Mixer = mixer
	return opts
}

// TestMixerPathMatrix is the determinism matrix over mixers and execution
// paths: on every path both mixers land within 1e-8 of the serial run with
// the same mixer, in the same number of iterations, and each path is a
// bitwise function of its config at 1 and 3 workers.
func TestMixerPathMatrix(t *testing.T) {
	type digest struct {
		run  runDigest
		self uint64
	}
	for _, mixer := range []MixerKind{Linear, Anderson} {
		var serial *Result
		for _, path := range bornPaths {
			var ref *Result
			var refDigest digest
			for _, workers := range []int{1, 3} {
				opts := convergingOpts(mixer)
				opts.Workers = workers
				res := runPath(t, leadSim(t, opts), path.cfg)
				if !res.Converged {
					t.Fatalf("mixer %d, %s, workers=%d: not converged in %d iterations", mixer, path.name, workers, res.Iterations)
				}
				got := digest{digestOf(res), selfEnergyDigest(res)}
				if workers == 1 {
					ref, refDigest = res, got
				} else if got != refDigest {
					t.Errorf("mixer %d, %s: workers=%d %+v differs from workers=1 %+v", mixer, path.name, workers, got, refDigest)
				}
			}
			if serial == nil {
				serial = ref
				continue
			}
			if ref.Iterations != serial.Iterations {
				t.Errorf("mixer %d, %s: %d iterations, serial ran %d", mixer, path.name, ref.Iterations, serial.Iterations)
			}
			if d := serial.GLess.MaxAbsDiff(ref.GLess); d > 1e-8 {
				t.Errorf("mixer %d, %s: G< differs from serial by %g", mixer, path.name, d)
			}
			if d := math.Abs(serial.Obs.CurrentL - ref.Obs.CurrentL); d > 1e-8*(1+math.Abs(serial.Obs.CurrentL)) {
				t.Errorf("mixer %d, %s: CurrentL %g, serial %g", mixer, path.name, ref.Obs.CurrentL, serial.Obs.CurrentL)
			}
		}
	}
}

// TestRecoveryKeepsResidualHistory pins the residual history across an SSE
// rank death: the replayed iteration's residual is taken against the G≷
// of the checkpointed iteration, so no residual is lost.
func TestRecoveryKeepsResidualHistory(t *testing.T) {
	opts := convergingOpts(Linear)
	clean, _, err := leadSim(t, opts).RunDistributedFT(ftConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig()
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 3}
	cfg.FaultIter = 1
	res, _, err := leadSim(t, opts).RunDistributedFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.Iterations != clean.Iterations || len(res.Residuals) != len(clean.Residuals) {
		t.Fatalf("recovered run: %d iterations, %d residuals; fault-free: %d, %d",
			res.Iterations, len(res.Residuals), clean.Iterations, len(clean.Residuals))
	}
	for i, r := range clean.Residuals {
		if d := math.Abs(res.Residuals[i] - r); d > 1e-8 {
			t.Errorf("residual %d: %g, fault-free %g", i, res.Residuals[i], r)
		}
	}
}

// TestSpatialRecoveryAtFinalIteration kills a spatial rank in the
// iteration where the fault-free run converges: the replay takes its
// residual against the checkpointed G≷ and converges there too, instead of
// running one more iteration.
func TestSpatialRecoveryAtFinalIteration(t *testing.T) {
	opts := convergingOpts(Linear)
	clean, _, err := leadSim(t, opts).RunDistributedFT(spatialConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Converged || clean.Iterations >= opts.MaxIter {
		t.Fatalf("fault-free run must converge before MaxIter: %d iterations", clean.Iterations)
	}
	cfg := spatialConfig(2)
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 1, KillAtOp: 3}
	cfg.FaultIter = clean.Iterations - 1
	res, _, err := leadSim(t, opts).RunDistributedFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("recovered run took %d iterations, fault-free %d", res.Iterations, clean.Iterations)
	}
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("recovered G< differs from fault-free run by %g", d)
	}
}

// TestAndersonRecoveryMatchesFaultFree kills a rank of a 2×2 grid under
// Anderson mixing after its history has filled: a failed iteration never
// reaches the mixer, so the replay continues the same Anderson sequence.
func TestAndersonRecoveryMatchesFaultFree(t *testing.T) {
	opts := convergingOpts(Anderson)
	clean, _, err := leadSim(t, opts).RunDistributedFT(ftConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig()
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 2, KillAtOp: 3}
	cfg.FaultIter = 2
	res, _, err := leadSim(t, opts).RunDistributedFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("recovered run took %d iterations, fault-free %d", res.Iterations, clean.Iterations)
	}
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("recovered G< differs from fault-free run by %g", d)
	}
	if d := math.Abs(clean.Obs.CurrentL - res.Obs.CurrentL); d > 1e-8*(1+math.Abs(clean.Obs.CurrentL)) {
		t.Fatalf("recovered CurrentL %g, fault-free %g", res.Obs.CurrentL, clean.Obs.CurrentL)
	}
}

// TestResumedRecoveryRewindsToSeed kills a rank before a resumed run's
// first checkpoint: the run rewinds to the resume seed, not to Σ = Π = 0,
// and lands where the fault-free resumed run does.
func TestResumedRecoveryRewindsToSeed(t *testing.T) {
	opts := convergingOpts(Linear)
	opts.MaxIter = 2
	sim := leadSim(t, opts)
	first, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxIter = 10
	cfg := ftConfig()
	cfg.Resume = CheckpointOf(device.WrapParams(sim.Dev.P), first)
	clean, _, err := leadSim(t, opts).RunDistributedFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &comm.FaultPlan{Kill: true, KillRank: 0, KillAtOp: 0}
	cfg.FaultIter = 0
	res, _, err := leadSim(t, opts).RunDistributedFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.Iterations != clean.Iterations {
		t.Fatalf("recovered run took %d iterations, fault-free resume %d", res.Iterations, clean.Iterations)
	}
	if d := clean.GLess.MaxAbsDiff(res.GLess); d > 1e-8 {
		t.Fatalf("recovered G< differs from the fault-free resumed run by %g", d)
	}
}
