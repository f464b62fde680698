package cmat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"negfsim/internal/obs"
)

// refMulAdd is an independent j-i-k oracle (different loop order from both
// kernels under test).
func refMulAdd(out, m, n *Dense) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < n.Cols; j++ {
			var s complex128
			for k := 0; k < m.Cols; k++ {
				s += m.Data[i*m.Cols+k] * n.Data[k*n.Cols+j]
			}
			out.Data[i*n.Cols+j] += s
		}
	}
}

// withBothKernels runs fn once per available micro-kernel implementation
// (pure Go always; assembly when the host supports it), restoring the
// package-level selection afterwards.
func withBothKernels(t *testing.T, fn func(t *testing.T)) {
	saved := useAsmKernel
	defer func() { useAsmKernel = saved }()
	useAsmKernel = false
	t.Run("go", fn)
	if saved {
		useAsmKernel = true
		t.Run("asm", fn)
	}
}

// TestBlockedMatchesNaiveQuick property-tests blocked GEMM ≡ naive GEMM over
// random shapes spanning the crossover, on both micro-kernel paths.
func TestBlockedMatchesNaiveQuick(t *testing.T) {
	withBothKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		f := func(rs, ks, cs uint8) bool {
			r := 1 + int(rs)%96
			k := 1 + int(ks)%96
			c := 1 + int(cs)%96
			m := RandomDense(rng, r, k)
			n := RandomDense(rng, k, c)
			a := RandomDense(rng, r, c)
			blocked := a.Clone()
			naive := a.Clone()
			m.mulBlocked(blocked, n, true, gemmKC, gemmNC)
			m.mulAddNaive(naive, n)
			return blocked.Equalish(naive, 1e-9*float64(k))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockedDegenerateShapes pins the edge shapes: 1×1, 1×N, N×1, and sizes
// straddling the block-size crossover and panel boundaries.
func TestBlockedDegenerateShapes(t *testing.T) {
	withBothKernels(t, testBlockedDegenerateShapes)
}

func testBlockedDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 7}, {7, 1, 1}, {1, 9, 1},
		{1, 64, 64}, {64, 64, 1}, {64, 1, 64},
		{2, 2, 2}, {3, 5, 7},
		{7, 7, 7}, {8, 8, 8}, {9, 9, 9}, // blockedMinWork crossover
		{31, 31, 31}, {32, 32, 32}, {33, 33, 33}, // goKernelMinWork crossover
		{gemmMR, gemmKC, gemmNR}, {gemmMR + 1, gemmKC + 1, gemmNR + 1},
		{5, gemmKC - 1, gemmNC - 1}, {5, gemmKC + 1, gemmNC + 1},
		{7, 2*gemmKC + 3, gemmNC + 5}, {65, 193, 67},
	}
	for _, s := range shapes {
		r, k, c := s[0], s[1], s[2]
		m := RandomDense(rng, r, k)
		n := RandomDense(rng, k, c)
		want := NewDense(r, c)
		refMulAdd(want, m, n)
		got := NewDense(r, c)
		m.MulAddInto(got, n)
		if !got.Equalish(want, 1e-9*float64(k+1)) {
			t.Fatalf("MulAddInto mismatch at %d×%d·%d×%d: max diff %g", r, k, k, c, got.MaxAbsDiff(want))
		}
		// Also force the blocked path directly (sizes below the crossover
		// would otherwise dispatch to naive).
		if c >= 1 {
			got2 := NewDense(r, c)
			m.mulBlocked(got2, n, true, gemmKC, gemmNC)
			if !got2.Equalish(want, 1e-9*float64(k+1)) {
				t.Fatalf("mulBlocked mismatch at %d×%d·%d×%d: max diff %g", r, k, k, c, got2.MaxAbsDiff(want))
			}
		}
		// Overwrite mode must ignore prior contents of out.
		got3 := RandomDense(rng, r, c)
		m.mulBlocked(got3, n, false, gemmKC, gemmNC)
		if !got3.Equalish(want, 1e-9*float64(k+1)) {
			t.Fatalf("mulBlocked overwrite mismatch at %d×%d·%d×%d", r, k, k, c)
		}
	}
}

// TestMulIntoOverwritesViaBlocked checks MulInto correctness across the
// dispatch boundary (it must overwrite, not accumulate, on both paths).
func TestMulIntoOverwritesViaBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 16, 48, 96} {
		a := RandomDense(rng, n, n)
		b := RandomDense(rng, n, n)
		out := RandomDense(rng, n, n) // garbage that must be overwritten
		a.MulInto(out, b)
		want := NewDense(n, n)
		refMulAdd(want, a, b)
		if !out.Equalish(want, 1e-9*float64(n)) {
			t.Fatalf("MulInto at n=%d: max diff %g", n, out.MaxAbsDiff(want))
		}
	}
}

// TestSparseOperandsStayOnNaivePath pins the density dispatch: a ~5%-dense
// left operand (Hamiltonian-like) must keep the zero-skip path, and produce
// the same values either way.
func TestSparseOperandsStayOnNaivePath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 96
	a := NewDense(n, n)
	for i := range a.Data {
		if rng.Float64() < 0.05 {
			a.Data[i] = complex(rng.Float64(), rng.Float64())
		}
	}
	if denseEnough(a, blockedMinDensity) {
		t.Fatal("sparse operand classified as dense")
	}
	b := RandomDense(rng, n, n)
	got := NewDense(n, n)
	a.MulAddInto(got, b)
	want := NewDense(n, n)
	refMulAdd(want, a, b)
	if !got.Equalish(want, 1e-9*float64(n)) {
		t.Fatal("sparse-path MulAddInto mismatch")
	}
}

// dispatchPath runs out = m·n through the dispatched MulInto and reports
// which kernel the cmat.gemm.* obs counters say it took.
func dispatchPath(t *testing.T, m, n, out *Dense) string {
	t.Helper()
	naive0, blocked0 := obsGemmNaive.Value(), obsGemmBlocked.Value()
	m.MulInto(out, n)
	dn, db := obsGemmNaive.Value()-naive0, obsGemmBlocked.Value()-blocked0
	switch {
	case dn == 1 && db == 0:
		return "naive"
	case dn == 0 && db == 1:
		return "blocked"
	}
	t.Fatalf("one product advanced cmat.gemm.naive by %d and cmat.gemm.blocked by %d", dn, db)
	return ""
}

// TestDispatchAtRGFBlockSizes pins the naive↔blocked dispatch at the block
// sizes the shipped configs produce: the born config's 16×16 electron and
// 24×24 phonon RGF blocks take the AVX2 kernel, while Norb×Norb-sized
// products (2×2, 6×6) and a Hamiltonian-like ~5%-dense left operand keep
// the naive loop. Without the assembly kernel every one of them stays
// naive, bitwise equal to mulAddNaive, as before the crossover moved.
func TestDispatchAtRGFBlockSizes(t *testing.T) {
	restoreBlocking(t)
	if err := SetBlocking(DefaultBlocking()); err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	rng := rand.New(rand.NewSource(23))
	sparse := NewDense(16, 16)
	for i := range sparse.Data {
		if rng.Float64() < 0.05 {
			sparse.Data[i] = complex(rng.Float64(), rng.Float64())
		}
	}
	sparse.Data[0] = 1 // at least one nonzero, whatever the stream gives
	cases := []struct {
		name      string
		m         *Dense
		asmKernel string // path with the AVX2 micro-kernel
	}{
		{"2x2", RandomDense(rng, 2, 2), "naive"},
		{"6x6", RandomDense(rng, 6, 6), "naive"},
		{"16x16-sparse", sparse, "naive"},
		{"16x16", RandomDense(rng, 16, 16), "blocked"},
		{"24x24", RandomDense(rng, 24, 24), "blocked"},
	}
	saved := useAsmKernel
	defer func() { useAsmKernel = saved }()
	for _, tc := range cases {
		sz := tc.m.Rows
		n := RandomDense(rng, sz, sz)
		want := NewDense(sz, sz)
		tc.m.mulAddNaive(want, n)

		useAsmKernel = false
		got := RandomDense(rng, sz, sz) // MulInto must overwrite
		if path := dispatchPath(t, tc.m, n, got); path != "naive" {
			t.Errorf("%s without the AVX2 kernel took the %s path, want naive", tc.name, path)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s without the AVX2 kernel: element %d is %v, mulAddNaive gives %v",
					tc.name, i, got.Data[i], want.Data[i])
			}
		}

		if !saved {
			continue
		}
		useAsmKernel = true
		got = RandomDense(rng, sz, sz)
		if path := dispatchPath(t, tc.m, n, got); path != tc.asmKernel {
			t.Errorf("%s with the AVX2 kernel took the %s path, want %s", tc.name, path, tc.asmKernel)
		}
		if !got.Equalish(want, 1e-9*float64(sz)) {
			t.Fatalf("%s with the AVX2 kernel: max diff %g from mulAddNaive", tc.name, got.MaxAbsDiff(want))
		}
	}
	if !saved {
		t.Log("no AVX2+FMA on this host: only the pure-Go dispatch was checked")
	}
}

// BenchmarkGEMMCrossover measures the naive loop, the blocked engine and
// the dispatched MulInto on square n×n products around the naive↔blocked
// crossover, on the micro-kernel this host selects. It is the measurement
// behind blockedMinWork and goKernelMinWork: "dispatch" should track the
// faster of "naive" and "blocked" at every n.
func BenchmarkGEMMCrossover(b *testing.B) {
	for _, size := range []int{2, 4, 6, 8, 12, 16, 24, 32} {
		rng := rand.New(rand.NewSource(3))
		m := RandomDense(rng, size, size)
		n := RandomDense(rng, size, size)
		out := NewDense(size, size)
		b.Run(fmt.Sprintf("n=%d/naive", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out.Zero()
				m.mulAddNaive(out, n)
			}
		})
		b.Run(fmt.Sprintf("n=%d/blocked", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.mulBlocked(out, n, false, gemmKC, gemmNC)
			}
		})
		b.Run(fmt.Sprintf("n=%d/dispatch", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulInto(out, n)
			}
		})
	}
}

func benchGEMM(b *testing.B, size int, blocked bool) {
	rng := rand.New(rand.NewSource(3))
	m := RandomDense(rng, size, size)
	n := RandomDense(rng, size, size)
	out := NewDense(size, size)
	b.SetBytes(int64(3 * size * size * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocked {
			m.mulBlocked(out, n, true, gemmKC, gemmNC)
		} else {
			m.mulAddNaive(out, n)
		}
	}
}

func BenchmarkGEMM256Naive(b *testing.B)   { benchGEMM(b, 256, false) }
func BenchmarkGEMM256Blocked(b *testing.B) { benchGEMM(b, 256, true) }
func BenchmarkGEMM64Naive(b *testing.B)    { benchGEMM(b, 64, false) }
func BenchmarkGEMM64Blocked(b *testing.B)  { benchGEMM(b, 64, true) }
