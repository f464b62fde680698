package core

import (
	"negfsim/internal/obs"
	"negfsim/internal/rgf"
)

// Counters of the lead self-energy cache (see docs/OBSERVABILITY.md): a
// hit is a grid point solved with its stored Σ_L/Σ_R, a miss one that ran
// the Sancho-Rubio decimation and stored the result.
var (
	obsLeadHits   = obs.GetCounter("core.leads.hits")
	obsLeadMisses = obs.GetCounter("core.leads.misses")
)

// leadCache holds the packed retarded lead self-energies of every grid
// point, indexed on the fine grid so an adaptive grid change keeps them.
// Σ_L/Σ_R depend only on the lead operators and η, never on the scattering
// self-energies, so a slot filled on the first Born iteration serves every
// later one. A slot is filled lazily the first time its point is solved;
// during a GF phase only the job that owns the point touches its slot.
type leadCache struct {
	eta      float64      // the η the slots were decimated with
	electron []*rgf.Leads // [kz·NE + e]
	phonon   []*rgf.Leads // [qz·Nw + w]
}

func newLeadCache(nElectron, nPhonon int, eta float64) leadCache {
	return leadCache{eta: eta, electron: make([]*rgf.Leads, nElectron), phonon: make([]*rgf.Leads, nPhonon)}
}

// sync drops every slot when η has changed since they were filled.
func (c *leadCache) sync(eta float64) {
	if eta != c.eta {
		c.reset()
		c.eta = eta
	}
}

// reset drops every slot.
func (c *leadCache) reset() {
	clear(c.electron)
	clear(c.phonon)
}

// invalidateElectron drops the electron slots. Every change of the cached
// Hamiltonians must call it; Φ never changes, so the phonon slots stay.
func (c *leadCache) invalidateElectron() { clear(c.electron) }

// electronLeads returns the lead self-energies of electron point (kz, e),
// decimating them into the point's slot on first use.
func (s *Simulator) electronLeads(kz, e int) (*rgf.Leads, error) {
	slot := &s.leads.electron[kz*s.Dev.P.NE+e]
	if *slot != nil {
		obsLeadHits.Inc()
		return *slot, nil
	}
	ld, err := rgf.ElectronLeads(s.h[kz], s.s[kz], s.Dev.P.Energy(e), s.Opts.Eta)
	if err != nil {
		return nil, err
	}
	obsLeadMisses.Inc()
	*slot = ld
	return ld, nil
}

// phononLeads returns the lead self-energies of phonon point (qz, w),
// decimating them into the point's slot on first use.
func (s *Simulator) phononLeads(qz, w int) (*rgf.Leads, error) {
	slot := &s.leads.phonon[qz*s.Dev.P.Nw+w]
	if *slot != nil {
		obsLeadHits.Inc()
		return *slot, nil
	}
	ld, err := rgf.PhononLeads(s.phi[qz], s.phononEnergy(w), s.Opts.Eta)
	if err != nil {
		return nil, err
	}
	obsLeadMisses.Inc()
	*slot = ld
	return ld, nil
}

// phononEnergy is the phonon energy ℏω of frequency index w.
func (s *Simulator) phononEnergy(w int) float64 {
	return float64(s.Dev.P.PhononShift(w)) * s.Dev.P.EStep()
}
