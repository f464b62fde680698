package core

import (
	"fmt"

	"negfsim/internal/comm"
	"negfsim/internal/sse"
	"negfsim/internal/tensor"
)

// Distributed execution of the SSE phase with OMEN's ORIGINAL
// momentum-energy decomposition (§4.1), carrying real tensor data — the
// baseline the communication-avoiding scheme is measured against. Each rank
// owns a round-robin share of the (kz, E) electron pairs and (qz, ω)
// phonon points. The SSE phase then runs in Nqz·Nω rounds; in every round
//
//   - the owner of (qz, ω) broadcasts the phonon Green's functions
//     D^≷(ω, qz) for ALL atoms;
//   - every rank receives, from their owners, the shifted electron Green's
//     functions G^≷(E−ℏω, kz−qz) and G^≷(E+ℏω, kz+qz) its pairs need —
//     again for ALL atoms (the full-5-D-tensor replication the paper
//     eliminates);
//   - the rank accumulates Σ^≷ for its own pairs and partial Π^≷(ω, qz),
//     which a reduction sums at the point's owner.
//
// The result is value-identical to the serial kernels; the traffic is the
// Table 4/5 OMEN volume.

// pairOwner assigns electron (kz, e) pairs round-robin.
func pairOwner(kz, e, ne, procs int) int { return (kz*ne + e) % procs }

// ownPairs lists the (kz, e) pairs a rank owns, in deterministic order.
func (s *Simulator) ownPairs(rank, procs int) [][2]int {
	p := s.Dev.P
	var out [][2]int
	for kz := 0; kz < p.Nkz; kz++ {
		for e := 0; e < p.NE; e++ {
			if pairOwner(kz, e, p.NE, procs) == rank {
				out = append(out, [2]int{kz, e})
			}
		}
	}
	return out
}

// packPoint serializes G^≷ at one (kz, e) point for all atoms.
func packPoint(g *tensor.GTensor, kz, e int, buf []complex128) []complex128 {
	for a := 0; a < g.NA; a++ {
		buf = append(buf, g.Block(kz, e, a).Data...)
	}
	return buf
}

// unpackPoint mirrors packPoint.
func unpackPoint(g *tensor.GTensor, kz, e int, buf []complex128) []complex128 {
	n2 := g.Norb * g.Norb
	for a := 0; a < g.NA; a++ {
		copy(g.Block(kz, e, a).Data, buf[:n2])
		buf = buf[n2:]
	}
	return buf
}

// shiftedPoints returns the down- and up-shifted grid points of a pair for
// round (qz, shift); invalid (off-grid) points return ok=false.
func shiftedPoints(kz, e, qz, shift, nkz, ne int) (down, up [2]int, downOK, upOK bool) {
	kd := ((kz-qz)%nkz + nkz) % nkz
	ku := (kz + qz) % nkz
	down = [2]int{kd, e - shift}
	up = [2]int{ku, e + shift}
	return down, up, e-shift >= 0, e+shift < ne
}

// DistributedSSEOMEN runs one SSE phase with the original decomposition on
// `procs` ranks of the simulated cluster.
func (s *Simulator) DistributedSSEOMEN(in sse.PhaseInput, procs int) (*DistributedResult, error) {
	if procs < 2 {
		return nil, fmt.Errorf("core: distributed SSE needs ≥ 2 ranks, got %d", procs)
	}
	return s.distributedSSEOMENOn(comm.NewCluster(procs), in, procs)
}

// distributedSSEOMENOn is DistributedSSEOMEN on a caller-provided cluster,
// so fault plans and deadlines configured by the caller apply to the
// baseline exchange pattern too.
func (s *Simulator) distributedSSEOMENOn(cluster *comm.Cluster, in sse.PhaseInput, procs int) (*DistributedResult, error) {
	p := s.Dev.P
	out := &DistributedResult{
		SigmaLess:  tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		SigmaGtr:   tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb),
		PiLess:     tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		PiGtr:      tensor.NewDTensor(p.Nqz, p.Nw, p.NA, p.NB, p.N3D),
		ModelBytes: comm.OMENVolume(p, procs),
	}
	pref := s.Kernel.SigmaPrefactor()
	piPref := s.Kernel.PiPrefactor()

	err := cluster.Run(func(r *comm.Rank) error {
		pairs := s.ownPairs(r.ID, procs)
		// Rank-local shifted-G store (filled round by round).
		shiftLess := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
		shiftGtr := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
		sigL := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
		sigG := tensor.NewGTensor(p.Nkz, p.NE, p.NA, p.Norb)
		dRound := tensor.NewDTensor(1, 1, p.NA, p.NB, p.N3D)
		dRoundG := tensor.NewDTensor(1, 1, p.NA, p.NB, p.N3D)
		n2 := p.Norb * p.Norb
		piBuf := make([]complex128, 2*p.NA*(p.NB+1)*p.N3D*p.N3D)

		for qz := 0; qz < p.Nqz; qz++ {
			for w := 0; w < p.Nw; w++ {
				owner := (qz*p.Nw + w) % procs
				shift := p.PhononShift(w)

				// 1. Broadcast D^≷(ω, qz), all atoms and neighbor slots.
				var dbuf []complex128
				if r.ID == owner {
					dbuf = append(dbuf, packD(in.DLess, [][2]int{{qz, w}}, allAtoms(p.NA))...)
					dbuf = append(dbuf, packD(in.DGtr, [][2]int{{qz, w}}, allAtoms(p.NA))...)
				}
				got, err := r.Bcast(owner, dbuf)
				if err != nil {
					return fmt.Errorf("round (%d,%d) D bcast: %w", qz, w, err)
				}
				half := len(got) / 2
				unpackD(dRound, got[:half], [][2]int{{0, 0}}, allAtoms(p.NA), false)
				unpackD(dRoundG, got[half:], [][2]int{{0, 0}}, allAtoms(p.NA), false)

				// 2. Shifted G exchange: send what each peer's pairs need
				//    from my chunk, receive what my pairs need.
				for d := 0; d < procs; d++ {
					if d == r.ID {
						continue
					}
					var buf []complex128
					for _, pr := range s.ownPairs(d, procs) {
						down, up, dOK, uOK := shiftedPoints(pr[0], pr[1], qz, shift, p.Nkz, p.NE)
						if dOK && pairOwner(down[0], down[1], p.NE, procs) == r.ID {
							buf = packPoint(in.GLess, down[0], down[1], buf)
							buf = packPoint(in.GGtr, down[0], down[1], buf)
						}
						if uOK && pairOwner(up[0], up[1], p.NE, procs) == r.ID {
							buf = packPoint(in.GLess, up[0], up[1], buf)
							buf = packPoint(in.GGtr, up[0], up[1], buf)
						}
					}
					if err := r.Send(d, buf); err != nil {
						return err
					}
				}
				for from := 0; from < procs; from++ {
					if from == r.ID {
						continue
					}
					buf, err := r.Recv(from)
					if err != nil {
						return fmt.Errorf("round (%d,%d) G recv from %d: %w", qz, w, from, err)
					}
					for _, pr := range pairs {
						down, up, dOK, uOK := shiftedPoints(pr[0], pr[1], qz, shift, p.Nkz, p.NE)
						if dOK && pairOwner(down[0], down[1], p.NE, procs) == from {
							buf = unpackPoint(shiftLess, down[0], down[1], buf)
							buf = unpackPoint(shiftGtr, down[0], down[1], buf)
						}
						if uOK && pairOwner(up[0], up[1], p.NE, procs) == from {
							buf = unpackPoint(shiftLess, up[0], up[1], buf)
							buf = unpackPoint(shiftGtr, up[0], up[1], buf)
						}
					}
					if len(buf) != 0 {
						return fmt.Errorf("round (%d,%d): %d leftover elements from %d", qz, w, len(buf), from)
					}
				}
				// Points this rank owns itself are read locally.
				for _, pr := range pairs {
					down, up, dOK, uOK := shiftedPoints(pr[0], pr[1], qz, shift, p.Nkz, p.NE)
					if dOK && pairOwner(down[0], down[1], p.NE, procs) == r.ID {
						copyPoint(shiftLess, in.GLess, down[0], down[1], n2)
						copyPoint(shiftGtr, in.GGtr, down[0], down[1], n2)
					}
					if uOK && pairOwner(up[0], up[1], p.NE, procs) == r.ID {
						copyPoint(shiftLess, in.GLess, up[0], up[1], n2)
						copyPoint(shiftGtr, in.GGtr, up[0], up[1], n2)
					}
				}

				// 3. Accumulate Σ^≷ for my pairs and Π^≷ partials.
				preL := s.Kernel.PreprocessD(dRound)
				preG := s.Kernel.PreprocessD(dRoundG)
				piPartL := tensor.NewDTensor(1, 1, p.NA, p.NB, p.N3D)
				piPartG := tensor.NewDTensor(1, 1, p.NA, p.NB, p.N3D)
				for _, pr := range pairs {
					kz, e := pr[0], pr[1]
					down, up, dOK, uOK := shiftedPoints(kz, e, qz, shift, p.Nkz, p.NE)
					if dOK {
						s.sigmaRound(sigL, shiftLess, preL, kz, e, down, pref)
						s.sigmaRound(sigG, shiftGtr, preG, kz, e, down, pref)
					}
					if uOK {
						s.piRound(piPartL, shiftLess, in.GGtr, kz, e, up, piPref)
						s.piRound(piPartG, shiftGtr, in.GLess, kz, e, up, piPref)
					}
				}
				// 4. Reduce the partials at the round's owner.
				buf := piBuf[:0]
				buf = append(buf, packD(piPartL, [][2]int{{0, 0}}, allAtoms(p.NA))...)
				buf = append(buf, packD(piPartG, [][2]int{{0, 0}}, allAtoms(p.NA))...)
				sum, err := r.Reduce(owner, buf)
				if err != nil {
					return fmt.Errorf("round (%d,%d) Π reduce: %w", qz, w, err)
				}
				if r.ID == owner {
					half := len(sum) / 2
					unpackD(out.PiLess, sum[:half], [][2]int{{qz, w}}, allAtoms(p.NA), true)
					unpackD(out.PiGtr, sum[half:], [][2]int{{qz, w}}, allAtoms(p.NA), true)
				}
			}
		}
		// Assemble Σ: each rank owns its pairs' output (disjoint writes).
		for _, pr := range pairs {
			copyPoint(out.SigmaLess, sigL, pr[0], pr[1], n2)
			copyPoint(out.SigmaGtr, sigG, pr[0], pr[1], n2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.MeasuredBytes = cluster.TotalBytes()
	return out, nil
}

func allAtoms(na int) []int {
	out := make([]int, na)
	for i := range out {
		out[i] = i
	}
	return out
}

func copyPoint(dst, src *tensor.GTensor, kz, e, n2 int) {
	for a := 0; a < dst.NA; a++ {
		copy(dst.Block(kz, e, a).Data, src.Block(kz, e, a).Data)
	}
}

// sigmaRound accumulates one round's contribution to Σ^≷[kz, e] using the
// OMEN kernel structure (∇H·G hoisted out of j).
func (s *Simulator) sigmaRound(sigma, gShift *tensor.GTensor, pre *sse.PreD, kz, e int, down [2]int, pref complex128) {
	p := s.Dev.P
	for a := 0; a < p.NA; a++ {
		dst := sigma.Block(kz, e, a)
		for b := 0; b < p.NB; b++ {
			f := s.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			gblk := gShift.Block(down[0], down[1], f)
			for i := 0; i < p.N3D; i++ {
				dHG := gblk.Mul(s.Kernel.DH(a, b, i))
				for j := 0; j < p.N3D; j++ {
					dHD := s.Kernel.DH(a, b, j).Scale(pre.At(0, 0, a, b, i, j))
					dst.AddScaledInPlace(pref, dHG.Mul(dHD))
				}
			}
		}
	}
}

// piRound accumulates one round's (single (kz, e) pair) contribution to the
// per-round Π^≷ partial: tr{∇iH_ba·G^≷(up)·∇jH_ab·G^≶(kz,e)}.
func (s *Simulator) piRound(pi *tensor.DTensor, gShift, gOwn *tensor.GTensor, kz, e int, up [2]int, pref float64) {
	p := s.Dev.P
	cpref := complex(0, pref)
	for a := 0; a < p.NA; a++ {
		for b := 0; b < p.NB; b++ {
			f := s.Dev.Neigh[a][b]
			if f < 0 {
				continue
			}
			rs := s.Dev.NeighborSlot(f, a)
			if rs < 0 {
				continue
			}
			gu := gShift.Block(up[0], up[1], a)
			gf := gOwn.Block(kz, e, f)
			for i := 0; i < p.N3D; i++ {
				u := s.Kernel.DH(f, rs, i).Mul(gu)
				for j := 0; j < p.N3D; j++ {
					wv := s.Kernel.DH(a, b, j).Mul(gf)
					val := cpref * u.TraceMul(wv)
					blk := pi.Block(0, 0, a, b)
					blk.Set(i, j, blk.At(i, j)+val)
					diag := pi.Block(0, 0, a, p.NB)
					diag.Set(i, j, diag.At(i, j)-val)
				}
			}
		}
	}
}
