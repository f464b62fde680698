package sse

import (
	"math"
	"math/rand"
	"testing"
)

func TestComputePhaseParallelMatchesSerial(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(71))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	want := k.ComputePhase(in, DaCe)
	for _, workers := range []int{2, 3, 4} {
		got := k.ComputePhaseParallel(in, DaCe, workers)
		tol := 1e-9 * (1 + gScale(want.SigmaLess))
		if d := want.SigmaLess.MaxAbsDiff(got.SigmaLess); d > tol {
			t.Fatalf("workers=%d: Σ^< diff %g", workers, d)
		}
		if d := want.SigmaGtr.MaxAbsDiff(got.SigmaGtr); d > tol {
			t.Fatalf("workers=%d: Σ^> diff %g", workers, d)
		}
		if d := want.PiLess.MaxAbsDiff(got.PiLess); d > 1e-9 {
			t.Fatalf("workers=%d: Π^< diff %g", workers, d)
		}
		if d := want.PiGtr.MaxAbsDiff(got.PiGtr); d > 1e-9 {
			t.Fatalf("workers=%d: Π^> diff %g", workers, d)
		}
	}
}

func TestComputePhaseParallelFallsBack(t *testing.T) {
	// Non-DaCe variants and single workers take the serial path and must
	// still produce correct values.
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(72))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	want := k.ComputePhase(in, OMEN)
	got := k.ComputePhaseParallel(in, OMEN, 4)
	if d := want.SigmaLess.MaxAbsDiff(got.SigmaLess); d != 0 {
		t.Fatalf("fallback path altered results by %g", d)
	}
}

// TestComputePhaseParallelBitwise pins the pool-parallel SSE phase bit for
// bit against the serial one: the tiles run the serial kernel on disjoint
// atom slices of one shared output, so no worker count may change a single
// bit of Σ^≷ or Π^≷.
func TestComputePhaseParallelBitwise(t *testing.T) {
	k := testKernel(t)
	p := k.Dev.P
	rng := rand.New(rand.NewSource(73))
	in := PhaseInput{
		GLess: randomAntiHermG(rng, p), GGtr: randomAntiHermG(rng, p),
		DLess: randomD(rng, p), DGtr: randomD(rng, p),
	}
	want := k.ComputePhase(in, DaCe)
	for _, workers := range []int{2, 3, 4, 8} {
		got := k.ComputePhaseParallel(in, DaCe, workers)
		for _, c := range []struct {
			name      string
			want, got []complex128
		}{
			{"Σ^<", want.SigmaLess.Data, got.SigmaLess.Data},
			{"Σ^>", want.SigmaGtr.Data, got.SigmaGtr.Data},
			{"Π^<", want.PiLess.Data, got.PiLess.Data},
			{"Π^>", want.PiGtr.Data, got.PiGtr.Data},
		} {
			if i := firstBitDiff(c.want, c.got); i >= 0 {
				t.Fatalf("workers=%d: %s[%d] = %v, serial %v", workers, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit
// of the real or imaginary part, or −1 when they are bitwise equal.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}
