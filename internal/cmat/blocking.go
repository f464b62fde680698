package cmat

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Blocking is the runtime-tunable configuration of the GEMM engine: the
// cache-blocking panel sizes of the packed kernel, the size and density
// thresholds of the naive↔blocked dispatch, and the serial threshold of the
// batched small-matrix dispatch. The zero value is invalid; DefaultBlocking
// returns the hand-tuned constants the engine has always used, and the
// autotuner (internal/tune) searches the space and installs a measured
// winner via SetBlocking.
//
// The micro-tile geometry (gemmMR×gemmNR = 2×4) is not part of Blocking: it
// is baked into the register allocation of the Go and assembly
// micro-kernels, so the strip width the packer produces is fixed at gemmNR.
type Blocking struct {
	// KC is the K-panel height: one packed strip is KC·gemmNR·16 bytes and
	// the micro-kernel holds its accumulators across a full KC loop.
	KC int `json:"kc"`
	// NC is the column-panel width: a packed panel is ≤ KC·NC·16 bytes and
	// should fit comfortably in L2.
	NC int `json:"nc"`
	// MinWork is the R·K·C product volume from which the blocked engine is
	// tried; below it packing overhead exceeds the cache savings. Hosts
	// without the AVX2+FMA micro-kernel raise it to at least 32³ at dispatch
	// (the pure-Go micro-kernel does not pay off below that), so the value
	// itself stays host-independent.
	MinWork int `json:"min_work"`
	// MinDensity is the sparse-vs-dense crossover: the minimum nonzero
	// fraction of the left operand for the blocked path (Table 6's
	// sparse-vs-dense trade). Below it the naive kernel's zero-skip wins.
	MinDensity float64 `json:"min_density"`
	// BatchWork is the total batch volume below which BatchMulAddInto runs
	// serially instead of over the worker pool.
	BatchWork int `json:"batch_work"`
}

// DefaultBlocking returns the compile-time constants as a Blocking — the
// configuration every run uses unless a schedule swaps in something else.
// It reads no CPU features: the same value on every host.
func DefaultBlocking() Blocking {
	return Blocking{
		KC:         gemmKC,
		NC:         gemmNC,
		MinWork:    blockedMinWork,
		MinDensity: blockedMinDensity,
		BatchWork:  batchSerialWork,
	}
}

// Validate checks that the blocking parameters are usable by the kernels.
func (b Blocking) Validate() error {
	if b.KC < 1 {
		return fmt.Errorf("cmat: blocking: kc must be positive, got %d", b.KC)
	}
	if b.NC < gemmNR {
		return fmt.Errorf("cmat: blocking: nc must be at least the strip width %d, got %d", gemmNR, b.NC)
	}
	if b.MinWork < 1 {
		return fmt.Errorf("cmat: blocking: min_work must be positive, got %d", b.MinWork)
	}
	if b.MinDensity < 0 || b.MinDensity > 1 {
		return fmt.Errorf("cmat: blocking: min_density %g outside [0, 1]", b.MinDensity)
	}
	if b.BatchWork < 0 {
		return fmt.Errorf("cmat: blocking: batch_work must be non-negative, got %d", b.BatchWork)
	}
	return nil
}

// active holds the installed Blocking. Hot paths load the pointer once per
// product and read plain struct fields; SetBlocking publishes a new value
// with a single atomic swap, so there is no lock and no per-call overhead
// beyond one atomic load.
var active atomic.Pointer[Blocking]

func init() {
	b := DefaultBlocking()
	active.Store(&b)
}

// SetBlocking validates b and installs it as the engine configuration for
// every subsequent product, process-wide. Install schedules before run
// start: an installed Blocking changes the summation order of the blocked
// kernel, so swapping mid-run makes results depend on timing. Concurrent
// products observe either the old or the new configuration atomically,
// never a mix.
func SetBlocking(b Blocking) error {
	if err := b.Validate(); err != nil {
		return err
	}
	active.Store(&b)
	return nil
}

// CurrentBlocking returns the installed engine configuration.
func CurrentBlocking() Blocking { return *active.Load() }

// MulBlockedInto computes out = m·n (or out += m·n when accumulate is set)
// through the cache-blocked kernel under an explicit Blocking, bypassing
// both the dispatch heuristics and the installed process-wide
// configuration. It exists for the autotuner: candidate configurations are
// probed through this entry, so a tuning pass perturbs no global state and
// can run concurrently with live jobs.
func (m *Dense) MulBlockedInto(out, n *Dense, accumulate bool, b Blocking) {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	checkMulShapes(m, out, n)
	m.mulBlocked(out, n, accumulate, b.KC, b.NC)
}

// MulNaiveInto computes out = m·n (or out += m·n when accumulate is set)
// through the naive zero-skipping kernel regardless of the dispatch
// heuristics — the fixed reference side of the autotuner's
// sparse-vs-dense crossover probe.
func (m *Dense) MulNaiveInto(out, n *Dense, accumulate bool) {
	checkMulShapes(m, out, n)
	if !accumulate {
		out.Zero()
	}
	m.mulAddNaive(out, n)
}

// checkMulShapes panics unless out, m, n have conforming product shapes.
func checkMulShapes(m, out, n *Dense) {
	if m.Cols != n.Rows {
		panic("cmat: Mul dimension mismatch")
	}
	if out.Rows != m.Rows || out.Cols != n.Cols {
		panic("cmat: Mul output shape mismatch")
	}
}

// GEMMProbe times reps products of two dense size×size matrices through
// the blocked kernel under b, on deterministic scratch operands, and
// returns the elapsed wall time. It is the measured half of the
// autotuner's "model + tune" loop; it touches no global state.
func GEMMProbe(size, reps int, b Blocking) time.Duration {
	m, n, out := probeOperands(size, 1.0)
	start := time.Now()
	for i := 0; i < reps; i++ {
		m.mulBlocked(out, n, false, b.KC, b.NC)
	}
	return time.Since(start)
}

// GEMMProbeNaive times reps products of a density-thinned left operand
// through the naive zero-skip kernel — the other side of the
// sparse-vs-dense crossover measurement.
func GEMMProbeNaive(size, reps int, density float64) time.Duration {
	m, n, out := probeOperands(size, density)
	start := time.Now()
	for i := 0; i < reps; i++ {
		out.Zero()
		m.mulAddNaive(out, n)
	}
	return time.Since(start)
}

// GEMMProbeBlockedDense times reps products of a density-thinned left
// operand through the blocked kernel under b. Together with
// GEMMProbeNaive it locates the density at which the dense micro-kernel
// overtakes the zero-skip loop.
func GEMMProbeBlockedDense(size, reps int, density float64, b Blocking) time.Duration {
	m, n, out := probeOperands(size, density)
	start := time.Now()
	for i := 0; i < reps; i++ {
		m.mulBlocked(out, n, false, b.KC, b.NC)
	}
	return time.Since(start)
}

// MulParProbe times reps parallel row-banded products of two size×size
// matrices over the given worker count and returns the elapsed wall time —
// the measurement behind the autotuner's worker-split choice.
func MulParProbe(size, reps, workers int) time.Duration {
	m, n, out := probeOperands(size, 1.0)
	start := time.Now()
	for i := 0; i < reps; i++ {
		m.MulParInto(out, n, workers)
	}
	return time.Since(start)
}

// probeOperands builds deterministic size×size probe matrices: a left
// operand with the given nonzero density, a dense right operand, and an
// output buffer. A fixed linear congruential stream (not math/rand) keeps
// the operands identical across processes and Go versions.
func probeOperands(size int, density float64) (m, n, out *Dense) {
	m = NewDense(size, size)
	n = NewDense(size, size)
	out = NewDense(size, size)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := range m.Data {
		keep := next() < density
		re, im := next()-0.5, next()-0.5
		if keep {
			m.Data[i] = complex(re, im)
		}
	}
	for i := range n.Data {
		n.Data[i] = complex(next()-0.5, next()-0.5)
	}
	return m, n, out
}
