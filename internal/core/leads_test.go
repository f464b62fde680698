package core

import (
	"hash/fnv"
	"math"
	"testing"

	"negfsim/internal/device"
	"negfsim/internal/obs"
)

// runDigest is a bitwise fingerprint of a run: the contact observables,
// the spectral current and every entry of G≷ and D≷.
type runDigest struct {
	iters                           int
	curL, curR, eCurL, heatL, heatR uint64
	spectral, green                 uint64
}

func digestOf(r *Result) runDigest {
	h := fnv.New64a()
	word := func(f float64) {
		var b [8]byte
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range r.Obs.CurrentPerEnergy {
		word(v)
	}
	spectral := h.Sum64()
	h.Reset()
	for _, data := range [][]complex128{r.GLess.Data, r.GGtr.Data, r.DLess.Data, r.DGtr.Data} {
		for _, v := range data {
			word(real(v))
			word(imag(v))
		}
	}
	return runDigest{
		iters: r.Iterations,
		curL:  math.Float64bits(r.Obs.CurrentL), curR: math.Float64bits(r.Obs.CurrentR),
		eCurL: math.Float64bits(r.Obs.EnergyCurrentL),
		heatL: math.Float64bits(r.Obs.HeatL), heatR: math.Float64bits(r.Obs.HeatR),
		spectral: spectral, green: h.Sum64(),
	}
}

// leadCounts reads the lead cache counters, which count only while obs
// recording is on.
func leadCounts() (hits, misses int64) {
	return obsLeadHits.Value(), obsLeadMisses.Value()
}

// withObs turns obs recording on for the rest of the test.
func withObs(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
}

// leadSim builds a reduced Mini device, small enough to run the cache
// pins under the race detector.
func leadSim(t *testing.T, opts Options) *Simulator {
	t.Helper()
	p := device.Mini()
	p.Nkz, p.Nqz, p.NE, p.Nw = 2, 2, 8, 3
	dev, err := device.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, opts)
}

// uncached makes sim decimate every lead afresh: its cache is emptied
// after every Born iteration, so each GF phase starts cold.
func uncached(sim *Simulator) *Simulator {
	sim.Opts.OnIteration = func(IterStats) { sim.leads.reset() }
	return sim
}

// TestLeadCacheMatchesUncached pins the cache bitwise: a run that reuses
// the lead self-energies across Born iterations equals the same run with
// the cache emptied before every GF phase, on the pool-parallel serial
// path at every worker count, the distributed SSE path and the in-process
// spatial split. The serial worker counts must also agree with each other:
// the GF phase reduces its observables in job order, not completion order.
func TestLeadCacheMatchesUncached(t *testing.T) {
	withObs(t)
	opts := DefaultOptions()
	opts.MaxIter = 2 // the second GF phase is all cache hits
	type runner func(*Simulator) (*Result, error)
	serial := func(s *Simulator) (*Result, error) { return s.Run() }
	dist := func(cfg DistConfig) runner {
		return func(s *Simulator) (*Result, error) {
			r, _, err := s.RunDistributedFT(cfg)
			return r, err
		}
	}
	cases := []struct {
		name    string
		workers int
		run     runner
		serial  bool
	}{
		{"serial-w1", 1, serial, true},
		{"serial-w2", 2, serial, true},
		{"serial-w3", 3, serial, true},
		{"dist-1x2", 2, dist(DistConfig{TE: 1, TA: 2}), false},
		{"space-2", 2, dist(spatialConfig(2)), false},
	}
	var serialRef *runDigest
	for _, tc := range cases {
		o := opts
		o.Workers = tc.workers
		h0, _ := leadCounts()
		cached, err := tc.run(leadSim(t, o))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h1, _ := leadCounts()
		cold, err := tc.run(uncached(leadSim(t, o)))
		if err != nil {
			t.Fatalf("%s uncached: %v", tc.name, err)
		}
		h2, _ := leadCounts()
		if h1 == h0 || h2 != h1 {
			t.Fatalf("%s: %d cache hits cached, %d uncached; want > 0 and 0", tc.name, h1-h0, h2-h1)
		}
		got, want := digestOf(cached), digestOf(cold)
		if got != want {
			t.Fatalf("%s: cached run %+v differs from uncached %+v", tc.name, got, want)
		}
		if !tc.serial {
			continue
		}
		if serialRef == nil {
			serialRef = &got
		} else if got != *serialRef {
			t.Fatalf("%s: %+v differs from Workers=1 %+v", tc.name, got, *serialRef)
		}
	}
}

// TestLeadCacheGummelInvalidation pins both invalidations of the electron
// leads: the coupled run under a nonzero gate (whose potential shifts the
// contact blocks of H every outer iteration) equals its uncached
// counterpart, and a plain run after it — on the restored pristine H —
// equals a fresh simulator's.
func TestLeadCacheGummelInvalidation(t *testing.T) {
	withObs(t)
	g := DefaultGate(0.3, 0.1)
	g.MaxOuter = 2
	sim := leadSim(t, gummelOpts())
	h0, _ := leadCounts()
	got, err := sim.RunWithPoisson(g)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := leadCounts(); h == h0 {
		t.Fatal("coupled run never reused a lead self-energy")
	}
	want, err := uncached(leadSim(t, gummelOpts())).RunWithPoisson(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.OuterIterations != 2 || want.OuterIterations != 2 {
		t.Fatalf("outer iterations %d and %d, want 2", got.OuterIterations, want.OuterIterations)
	}
	if a, b := digestOf(got.Result), digestOf(want.Result); a != b {
		t.Fatalf("coupled run with cache %+v differs from uncached %+v", a, b)
	}

	after, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := leadSim(t, gummelOpts()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := digestOf(after), digestOf(fresh); a != b {
		t.Fatalf("run after the coupled loop %+v differs from a fresh simulator's %+v", a, b)
	}
}

// TestLeadCacheCounts pins the counters exactly: one serial N-iteration
// run decimates every grid point once and reuses it on each of the N−1
// later iterations.
func TestLeadCacheCounts(t *testing.T) {
	withObs(t)
	const n = 3
	opts := DefaultOptions()
	opts.MaxIter = n
	opts.Tol = 1e-300 // never converges early: exactly n iterations
	opts.Workers = 2
	sim := leadSim(t, opts)
	h0, m0 := leadCounts()
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := leadCounts()
	if res.Iterations != n {
		t.Fatalf("ran %d iterations, want %d", res.Iterations, n)
	}
	p := sim.Dev.P
	points := int64(p.Nkz*p.NE + p.Nqz*p.Nw)
	if m1-m0 != points || h1-h0 != (n-1)*points {
		t.Fatalf("%d misses and %d hits, want %d and %d", m1-m0, h1-h0, points, (n-1)*points)
	}
}
