package core

import (
	"context"
	"fmt"
	"time"

	"negfsim/internal/comm"
)

// DistConfig configures a fault-tolerant distributed Born run
// (RunDistributedFT). The zero value of every optional field keeps the
// documented default, so DistConfig{TE: te, TA: ta} reproduces the plain
// RunDistributed behavior.
type DistConfig struct {
	// TE, TA are the initial energy×atom rank grid of the SSE phase.
	TE, TA int

	// Space, when ≥ 2, additionally partitions every electron retarded
	// solve of the GF phase across a spatial cluster of that many ranks —
	// the device-dimension split (rgf.DistributedRetarded). Requires
	// Bnum ≥ 2·Space−1 so every rank owns at least one interior block.
	// A persistent Cluster serves both phases, so when both axes are
	// requested its size must equal TE·TA and Space alike.
	Space int

	// CommTimeout bounds every Send/Recv on the simulated cluster — the
	// detection backstop for failures the cancellation channel cannot see.
	// 0 keeps comm.DefaultTimeout. Prompt detection does not depend on it:
	// a rank death cancels the cluster and unblocks survivors immediately.
	CommTimeout time.Duration

	// MaxRecoveries bounds how many rank failures the run survives before
	// giving up and returning the failure (default 2).
	MaxRecoveries int

	// RetryBackoff is the pause before a recovery attempt, scaled linearly
	// with the attempt number (default 10ms).
	RetryBackoff time.Duration

	// Fault, when non-nil, is armed on the cluster of Born iteration
	// FaultIter (0-based) and fires exactly once — the hook behind qtsim
	// -inject-fault and the recovery tests.
	Fault     *comm.FaultPlan
	FaultIter int

	// CheckpointPath, when non-empty, additionally persists the in-memory
	// checkpoint to this gob file after every completed iteration (the file
	// qtsim -checkpoint writes and LoadCheckpoint reads).
	CheckpointPath string

	// Resume, when non-nil, seeds the run with a checkpoint's self-energies
	// instead of starting from Σ = Π = 0.
	Resume *Checkpoint

	// Cluster, when non-nil, is a caller-provided persistent communicator —
	// typically one peer of a multi-process TCP cluster
	// (comm.NewClusterTCP) — used for every Born iteration instead of the
	// per-iteration in-process clusters. Its size must equal TE·TA. The
	// caller owns its lifecycle (Close); the run never unregisters it.
	// When a peer process dies mid-run, the survivors cannot re-derive a
	// grid over it: they restore the last checkpoint and finish on the
	// shared-memory executors, with the same observables.
	Cluster *comm.Cluster
}

// RunDistributed executes the full self-consistent Born loop with the SSE
// phase under the communication-avoiding decomposition on the simulated
// TE×TA cluster (the GF phase stays shared-memory parallel, as on one node
// of the paper's runs). The trajectory is Run()'s — the decomposition
// changes data movement, not values — and the accumulated exchange traffic
// is returned, so the communication cost of a full simulation is measured
// rather than modeled.
func (s *Simulator) RunDistributed(te, ta int) (*Result, int64, error) {
	return s.RunDistributedFT(DistConfig{TE: te, TA: ta})
}

// RunDistributedFT is RunDistributed with fault tolerance: it checkpoints
// the mixed self-energies after every iteration, and when a rank dies
// (promptly surfaced as comm.ErrRankDead) it shrinks the failed executor
// over the survivors — re-deriving the volume-minimizing TE×TA grid, or
// dropping one spatial rank — and replays the iteration from the
// checkpoint, bounded by MaxRecoveries attempts with linear backoff. Below
// two ranks an executor degrades to its shared-memory form, so a run
// always either completes or reports a non-transient error.
func (s *Simulator) RunDistributedFT(cfg DistConfig) (*Result, int64, error) {
	return s.RunDistributedFTCtx(context.Background(), cfg)
}

// RunDistributedFTCtx is RunDistributedFT bound to a context. Cancellation
// is observed at Born iteration boundaries, per GF grid point, and inside
// every blocked Send/Recv of the per-iteration clusters, so a cancelled run
// releases its rank goroutines within microseconds. Cancellation is
// terminal, never a rank failure to recover from, and unregisters the
// abandoned cluster's per-rank byte gauges.
func (s *Simulator) RunDistributedFTCtx(ctx context.Context, cfg DistConfig) (*Result, int64, error) {
	if err := s.checkDist(cfg); err != nil {
		return nil, 0, err
	}
	return s.born(ctx, cfg)
}

// checkDist validates a distributed configuration against the device: the
// spatial split needs Bnum ≥ 2·Space−1, the SSE grid one energy per rank
// (a spatial-only run names no grid), and a persistent cluster must match
// every axis it carries.
func (s *Simulator) checkDist(cfg DistConfig) error {
	te, ta, space := cfg.TE, cfg.TA, cfg.Space
	if space < 2 {
		space = 0
	}
	if space > 0 && s.Dev.P.Bnum < 2*space-1 {
		return fmt.Errorf("core: %d device blocks cannot be partitioned across %d spatial ranks",
			s.Dev.P.Bnum, space)
	}
	if te > 0 || space == 0 {
		if err := s.checkGrid(te, ta); err != nil {
			return err
		}
	}
	if cl := cfg.Cluster; cl != nil {
		if te > 0 && cl.Size() != te*ta {
			return fmt.Errorf("core: cluster of %d ranks cannot carry a %d×%d grid", cl.Size(), te, ta)
		}
		if space > 0 && cl.Size() != space {
			return fmt.Errorf("core: cluster of %d ranks cannot carry a %d-way spatial split", cl.Size(), space)
		}
	}
	return nil
}

// deriveGrid picks the TE×TA decomposition for a surviving rank count: the
// volume-minimizing feasible factorization (the §4.1 exhaustive search).
// When no ≥2-rank grid fits the device, it returns (0, 0), the degraded
// shared-memory marker.
func (s *Simulator) deriveGrid(procs int) (te, ta int) {
	if procs < 2 || s.Dev.P.NE < procs {
		return 0, 0
	}
	best, feasible := comm.SearchTiles(s.Dev.P, procs, 0)
	if len(feasible) == 0 {
		return 0, 0
	}
	return best.TE, best.TA
}
