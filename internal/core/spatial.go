package core

import (
	"context"
	"fmt"

	"negfsim/internal/comm"
	"negfsim/internal/rgf"
)

// runSpatial solves the phase with every electron retarded solve
// partitioned across the ranks of a spatial cluster
// (rgf.DistributedRetarded), the device-dimension split of OMEN's
// momentum/energy/space hierarchy. The (kz, E) points run sequentially, each
// solve spreading its block elimination over every rank. The Keldysh
// closure runs on the replicated diagonal: in-process rank 0 closes each
// point, while each process of a multi-process cluster closes every point
// on its own replica, so every process holds the full, bit-identical
// observables and tensors. The driver goroutine fetches each point's lead
// self-energies before the collective solve; the ranks only read them.
// Phonon points stay local on the worker pool. A failed point surfaces the
// cluster error (comm.ErrRankDead too) wrapped with its grid coordinates.
func (g *gfState) runSpatial(ctx context.Context, cluster *comm.Cluster) error {
	s := g.sim
	multi := cluster.MultiProcess()
	p := s.Dev.P
	for i, j := range g.jobs[:g.electronPoints] {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("core: GF phase cancelled: %w", cerr)
		}
		leads, lerr := s.electronLeads(j.kz, j.e)
		if lerr != nil {
			return fmt.Errorf("electron point (kz=%d, E=%d): %w", j.kz, j.e, lerr)
		}
		scat := s.scatteringBlocks(j.kz, j.e, g.sigR, g.sigL, g.sigG)
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
			return fmt.Errorf("electron point (kz=%d, E=%d): %w", j.kz, j.e, rerr)
		}
		g.keepElectron(i, res)
	}
	return g.runPool(ctx, g.electronPoints, len(g.jobs))
}
