package tune

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/obs"
)

// fixedTable is a deterministic probe "measurement": a pure function of
// the probe parameters, constructed so the best blocking is (128, 48),
// the crossover lands at 0.20, and 4 workers win. It stands in for a real
// machine in the determinism test (make tune-test).
func fixedTable(p Probe) time.Duration {
	switch p.Kind {
	case "gemm":
		d := time.Duration(1000+10*abs(p.KC-128)+20*abs(p.NC-48)) * time.Microsecond
		return d * time.Duration(p.Size) / 64
	case "crossover":
		if p.Blocked {
			return 1500 * time.Microsecond
		}
		// Naive time grows with density; crosses 1500µs at 0.20.
		return time.Duration(float64(7500*time.Microsecond) * p.Density)
	case "workers":
		return time.Duration(1000+100*abs(p.Workers-4)) * time.Microsecond
	}
	panic("unknown probe " + p.Kind)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestTunerDeterministicGivenFixedProbes is the tune-test gate: two
// searches over the same fixed probe table must produce identical
// schedules, and the table's planted optima must be found. With Measure
// injected, the wall budget must not influence candidate coverage.
func TestTunerDeterministicGivenFixedProbes(t *testing.T) {
	mk := func() Schedule {
		tn := &Tuner{Budget: time.Nanosecond, Sizes: []int{32, 64}, MaxWorkers: 8, Measure: fixedTable}
		return tn.Search()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("searches over a fixed probe table diverged:\n%+v\n%+v", a, b)
	}
	if a.GEMM.KC != 128 || a.GEMM.NC != 48 {
		t.Fatalf("planted blocking optimum (128, 48) not found: got (%d, %d)", a.GEMM.KC, a.GEMM.NC)
	}
	if a.GEMM.MinDensity != 0.20 {
		t.Fatalf("planted crossover 0.20 not found: got %g", a.GEMM.MinDensity)
	}
	if a.Workers != 4 {
		t.Fatalf("planted worker optimum 4 not found: got %d", a.Workers)
	}
	if a.Probes == 0 || a.Probes != b.Probes {
		t.Fatalf("probe counts unstable: %d vs %d", a.Probes, b.Probes)
	}
	if a.ModelAgreement < -1 || a.ModelAgreement > 1 {
		t.Fatalf("model agreement %g outside [-1, 1]", a.ModelAgreement)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTunerRealProbesSmall runs a genuinely measured search under a tiny
// budget: it must terminate quickly, return a valid schedule, and count
// its probes.
func TestTunerRealProbesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("measured probes under -short")
	}
	tn := &Tuner{Budget: 300 * time.Millisecond, Sizes: []int{48, 64}, MaxWorkers: 2}
	s := tn.Search()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Probes < 5 {
		t.Fatalf("suspiciously few probes: %d", s.Probes)
	}
	// Workers == 0 is the "no preference, keep GOMAXPROCS" verdict — the
	// expected outcome when no candidate clears the sign test + margin.
	if s.Workers < 0 || s.Workers > 2 {
		t.Fatalf("worker split %d outside probed range", s.Workers)
	}
}

// TestScheduleRoundTripGolden pins the JSON schema: a fully populated
// schedule must marshal to the committed golden file byte-for-byte and
// parse back to an identical value.
func TestScheduleRoundTripGolden(t *testing.T) {
	s := Schedule{
		Version: ScheduleVersion,
		HostKey: "Example CPU @ 2.10GHz|gomaxprocs=8|" + LibraryVersion,
		GEMM: cmat.Blocking{
			KC: 128, NC: 48, MinWork: 32768, MinDensity: 0.2, BatchWork: 65536,
		},
		Workers:        4,
		Tiles:          []Tile{{NA: 4864, Nkz: 3, NE: 706, Nw: 10, Procs: 768, TE: 3, TA: 256, Bytes: 2.2e12}},
		Probes:         42,
		ProbeBudgetMs:  4000,
		ModelAgreement: 0.62,
	}
	got, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "schedule_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v (regenerate by writing the Marshal output)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("schedule JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	back, err := ParseSchedule(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*back, s) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", *back, s)
	}
}

// withTempCache points the platform cache root at a per-test directory.
func withTempCache(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", dir)
	if _, err := os.UserCacheDir(); err != nil {
		t.Skipf("no user cache dir on this platform: %v", err)
	}
	return dir
}

// counterDelta samples an obs counter around fn.
func counterDelta(name string, fn func()) int64 {
	c := obs.GetCounter(name)
	before := c.Value()
	fn()
	return c.Value() - before
}

// TestCacheSaveThenLoadHits checks the happy path and the acceptance
// criterion: after SaveCached, LoadCached returns the schedule with zero
// probes spent and tune.cache_hits incremented.
func TestCacheSaveThenLoadHits(t *testing.T) {
	withTempCache(t)
	obs.Enable()
	defer obs.Disable()

	s := DefaultSchedule()
	s.GEMM.KC, s.GEMM.NC = 128, 48
	s.Workers = 4
	path, err := SaveCached(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	var got Schedule
	var hit bool
	probes := counterDelta("tune.probes_total", func() {
		hits := counterDelta("tune.cache_hits", func() {
			got, hit = LoadCached(t.Logf)
		})
		if hits != 1 {
			t.Fatalf("tune.cache_hits advanced by %d, want 1", hits)
		}
	})
	if probes != 0 {
		t.Fatalf("cache load spent %d probes, want 0", probes)
	}
	if !hit {
		t.Fatal("LoadCached missed a schedule SaveCached just wrote")
	}
	if got.GEMM.KC != 128 || got.GEMM.NC != 48 || got.Workers != 4 {
		t.Fatalf("loaded schedule lost fields: %+v", got)
	}
	if got.HostKey != HostKey() {
		t.Fatal("SaveCached did not stamp the host key")
	}
}

// TestCacheFallbacks drives every degraded-cache case — corrupt JSON,
// version mismatch, wrong host key — and checks each falls back to the
// defaults with a logged warning and a tune.cache_misses tick, never a
// hard failure.
func TestCacheFallbacks(t *testing.T) {
	cases := []struct {
		name    string
		content func() []byte
		warn    string
	}{
		{"corrupt", func() []byte { return []byte("{not json") }, "ignored"},
		{"version-mismatch", func() []byte {
			s := DefaultSchedule()
			s.Version = ScheduleVersion + 1
			s.HostKey = HostKey()
			out, _ := s.Marshal()
			return out
		}, "ignored"},
		{"wrong-host", func() []byte {
			s := DefaultSchedule()
			s.HostKey = "some other machine|gomaxprocs=1|" + LibraryVersion
			out, _ := s.Marshal()
			return out
		}, "another host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withTempCache(t)
			obs.Enable()
			defer obs.Disable()
			path, err := CachePath()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.content(), 0o644); err != nil {
				t.Fatal(err)
			}
			var warned []string
			var got Schedule
			var hit bool
			misses := counterDelta("tune.cache_misses", func() {
				got, hit = LoadCached(func(f string, a ...any) {
					warned = append(warned, fmt.Sprintf(f, a...))
				})
			})
			if misses != 1 {
				t.Fatalf("tune.cache_misses advanced by %d, want 1", misses)
			}
			if hit {
				t.Fatal("degraded cache reported as hit")
			}
			if !reflect.DeepEqual(got, DefaultSchedule()) {
				t.Fatalf("fallback is not the default schedule: %+v", got)
			}
			if len(warned) != 1 || !strings.Contains(warned[0], tc.warn) {
				t.Fatalf("warning %q does not mention %q", warned, tc.warn)
			}
		})
	}
}

// TestCacheFromOlderKernelsFallsBack pins the kernel-generation bump: a
// schedule saved under the previous LibraryVersion carries that
// generation's min_work (32³) and must not be reinstalled. It sits under
// the old host key's hash, which this build never looks up.
func TestCacheFromOlderKernelsFallsBack(t *testing.T) {
	const oldVersion = "negfsim-kernels-2"
	if LibraryVersion == oldVersion {
		t.Fatal("LibraryVersion was not bumped past the 32³-crossover generation")
	}
	withTempCache(t)
	old := DefaultSchedule()
	old.HostKey = strings.TrimSuffix(HostKey(), LibraryVersion) + oldVersion
	old.GEMM.MinWork = 32 * 32 * 32
	data, err := old.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path, err := cachePathFor(old.HostKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, hit := LoadCached(t.Logf)
	if hit {
		t.Fatal("a schedule tuned against the previous kernel generation was reported as a hit")
	}
	if !reflect.DeepEqual(got, DefaultSchedule()) {
		t.Fatalf("fallback is not the default schedule: %+v", got)
	}
}

// TestCacheAbsentIsSilent checks a simply-missing cache file warns
// nothing (first run on a host is not an anomaly) but still counts a miss.
func TestCacheAbsentIsSilent(t *testing.T) {
	withTempCache(t)
	obs.Enable()
	defer obs.Disable()
	var warned bool
	misses := counterDelta("tune.cache_misses", func() {
		if _, hit := LoadCached(func(string, ...any) { warned = true }); hit {
			t.Fatal("hit on an empty cache")
		}
	})
	if warned {
		t.Fatal("absent cache file produced a warning")
	}
	if misses != 1 {
		t.Fatalf("tune.cache_misses advanced by %d, want 1", misses)
	}
}

// TestLoadFileHostMismatchWarnsButApplies pins the -schedule contract:
// an explicit file from another host is applied, with a warning.
func TestLoadFileHostMismatchWarnsButApplies(t *testing.T) {
	dir := t.TempDir()
	s := DefaultSchedule()
	s.HostKey = "elsewhere|gomaxprocs=2|" + LibraryVersion
	s.GEMM.KC = 96
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sched.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bool
	got, err := LoadFile(path, func(string, ...any) { warned = true })
	if err != nil {
		t.Fatal(err)
	}
	if !warned {
		t.Fatal("host mismatch on an explicit file did not warn")
	}
	if got.GEMM.KC != 96 {
		t.Fatal("explicit file not applied")
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.json"), nil); err == nil {
		t.Fatal("absent explicit file must error (unlike the cache)")
	}
}

// TestSearchDecompositionMatchesComm pins the model-only tile search to
// comm.SearchTiles and the schedule's lookup/refresh semantics.
func TestSearchDecompositionMatchesComm(t *testing.T) {
	p := device.Paper4864(3)
	const procs = 768
	tile, err := SearchDecomposition(p, procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := comm.SearchTiles(p, procs, 0)
	if tile.TE != best.TE || tile.TA != best.TA || tile.Bytes != best.Bytes {
		t.Fatalf("tile %+v disagrees with comm.SearchTiles best %+v", tile, best)
	}
	var s Schedule
	s.AddTile(tile)
	got, ok := s.TileFor(p, procs)
	if !ok || got != tile {
		t.Fatalf("TileFor lost the tile: %+v", got)
	}
	if _, ok := s.TileFor(p, procs+1); ok {
		t.Fatal("TileFor matched a different process count")
	}
	tile.TE, tile.TA = best.TA, best.TE // refresh with swapped grid
	tile.Procs = tile.TE * tile.TA
	s.AddTile(tile)
	if len(s.Tiles) != 1 {
		t.Fatalf("AddTile appended instead of refreshing: %d tiles", len(s.Tiles))
	}
	if _, err := SearchDecomposition(p, procs, 1); err == nil {
		t.Fatal("impossible memory limit must fail the search")
	}
}

// TestApplyGlobalInstallsBlocking checks ApplyGlobal swaps the cmat
// configuration and an invalid schedule is rejected before touching it.
func TestApplyGlobalInstallsBlocking(t *testing.T) {
	saved := cmat.CurrentBlocking()
	defer func() {
		if err := cmat.SetBlocking(saved); err != nil {
			t.Fatal(err)
		}
	}()
	s := DefaultSchedule()
	s.GEMM.KC = 96
	if err := s.ApplyGlobal(); err != nil {
		t.Fatal(err)
	}
	if got := cmat.CurrentBlocking(); got.KC != 96 {
		t.Fatalf("ApplyGlobal did not install: %+v", got)
	}
	bad := DefaultSchedule()
	bad.GEMM.KC = 0
	if err := bad.ApplyGlobal(); err == nil {
		t.Fatal("invalid blocking accepted")
	}
	if got := cmat.CurrentBlocking(); got.KC != 96 {
		t.Fatal("rejected ApplyGlobal perturbed the installed blocking")
	}
}
