package core

import (
	"context"
	"fmt"

	"negfsim/internal/comm"
	"negfsim/internal/rgf"
	"negfsim/internal/tensor"
)

// gfPhaseSpatial is gfPhase with every electron retarded solve partitioned
// across the ranks of a spatial cluster (rgf.DistributedRetarded): the
// device-dimension split of OMEN's momentum/energy/space hierarchy. The
// (kz, E) points run sequentially — each point's solve already spreads its
// block elimination over every rank — and the Keldysh closure runs on the
// replicated diagonal: in-process exactly rank 0 closes each point, while
// each process of a multi-process cluster closes every point on its own
// replica, so every process accumulates the full observables and tensors
// (bit-identical across peers) exactly once. The driver goroutine fetches
// (or decimates) each point's lead self-energies before the collective
// solve, and the ranks only read them. Phonon points stay local — their
// small systems are not worth the exchange latency — and run on the worker
// pool as in gfPhase. The caller reads the cluster's byte counters around
// the call; a failed point surfaces the cluster error (including
// comm.ErrRankDead) wrapped with its grid coordinates.
func (s *Simulator) gfPhaseSpatial(ctx context.Context, cluster *comm.Cluster,
	sigR, sigL, sigG *tensor.GTensor, piR, piL, piG *tensor.DTensor) (
	gl, gg *tensor.GTensor, dl, dg *tensor.DTensor, o Observables, err error) {
	g := s.newGFState(sigR, sigL, sigG, piR, piL, piG)
	multi := cluster.MultiProcess()
	p := s.Dev.P
	for i, j := range g.jobs[:g.electronPoints] {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, nil, nil, o, fmt.Errorf("core: GF phase cancelled: %w", cerr)
		}
		leads, lerr := s.electronLeads(j.kz, j.e)
		if lerr != nil {
			return nil, nil, nil, nil, o, fmt.Errorf("electron point (kz=%d, E=%d): %w", j.kz, j.e, lerr)
		}
		scat := s.scatteringBlocks(j.kz, j.e, sigR, sigL, sigG)
		var res *rgf.ElectronResult
		rerr := cluster.Run(func(r *comm.Rank) error {
			// In-process, rank 0 closes the point; each process of a
			// multi-process cluster closes it on its own replica.
			closure := multi || r.ID == 0
			pt, perr := rgf.SolveElectronWith(r, closure, leads, s.h[j.kz], s.s[j.kz],
				p.Energy(j.e), scat, s.Opts.Contacts, s.Opts.Eta)
			if perr != nil {
				return perr
			}
			if pt != nil {
				res = pt
			}
			return nil
		})
		scat.Release()
		if rerr != nil {
			return nil, nil, nil, nil, o, fmt.Errorf("electron point (kz=%d, E=%d): %w", j.kz, j.e, rerr)
		}
		g.keepElectron(i, res)
	}
	if err := g.runPool(ctx, g.electronPoints, len(g.jobs)); err != nil {
		return nil, nil, nil, nil, o, err
	}
	return g.gl, g.gg, g.dl, g.dg, g.finish(), nil
}
