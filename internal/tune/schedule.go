// Package tune automates the paper's "model + tune" loop for this runtime:
// a budgeted autotuner searches the GEMM cache-blocking parameters, the
// sparse-vs-dense crossover density (Table 6), the pool worker split and
// the (TE, TA) grid decomposition — seeding short measured probes from
// internal/perfmodel priors instead of sweeping exhaustively — and
// persists the winning Schedule as versioned JSON in a per-host cache that
// qtsim and qtsimd consult at startup (-tune=off|cached|force).
//
// Scope discipline: a Schedule has a process-global part (the cmat
// Blocking, installed once before run start via ApplyGlobal) and per-run
// parts (the worker split and decomposition, threaded through Options and
// DistConfig). Probing itself touches no global state — candidates run
// through cmat's explicit-parameter probe entries — so a tuning pass can
// execute next to live jobs, and per-job schedules in the daemon are
// restricted to the per-run parts (see internal/serve).
package tune

import (
	"bytes"
	"encoding/json"
	"fmt"

	"negfsim/internal/cmat"
	"negfsim/internal/comm"
	"negfsim/internal/device"
	"negfsim/internal/obs"
)

// ScheduleVersion is the schedule schema version this build writes and
// accepts. Bump it when the meaning of a field changes; cached files with
// another version are ignored (the kernels they were tuned for are gone).
const ScheduleVersion = 1

// LibraryVersion names the kernel generation a schedule was tuned against.
// It is folded into the host key, so a cache entry measured on older
// kernels is invalidated by a version bump here. Generation 3 moved the
// naive↔blocked crossover (cmat.Blocking.MinWork, which the search copies
// from the defaults) from 32³ to 8³; older caches would reinstall 32³.
const LibraryVersion = "negfsim-kernels-3"

// Tile records the volume-minimizing (TE, TA) decomposition the search
// found for one device shape and process count — the §4.1 decision,
// persisted so a run at the same shape skips the search.
type Tile struct {
	// NA, Nkz, NE, Nw identify the device shape the search was run for.
	NA  int `json:"na"`
	Nkz int `json:"nkz"`
	NE  int `json:"ne"`
	Nw  int `json:"nw"`
	// Procs is the total process count the decomposition factorizes.
	Procs int `json:"procs"`
	// TE and TA are the energy and atom partition counts (Procs = TE·TA).
	TE int `json:"te"`
	TA int `json:"ta"`
	// Bytes is the predicted total exchange volume of the decomposition.
	Bytes float64 `json:"bytes"`
}

// Schedule is the persisted outcome of one tuning pass: everything the
// binaries need to reproduce the tuned configuration without re-probing.
type Schedule struct {
	// Version is the schema version (ScheduleVersion).
	Version int `json:"version"`
	// HostKey identifies the machine + GOMAXPROCS + kernel generation the
	// schedule was measured on; a cached schedule is only trusted when it
	// matches the loading host. Empty in fragments (tilesearch -json) that
	// carry no measured data.
	HostKey string `json:"host_key,omitempty"`
	// GEMM is the tuned kernel configuration installed into cmat.
	GEMM cmat.Blocking `json:"gemm"`
	// Workers is the measured best pool worker split for the parallel
	// phases; 0 means "no preference" (callers keep their own default).
	Workers int `json:"workers,omitempty"`
	// Tiles are the decompositions searched so far, most recent last.
	Tiles []Tile `json:"tiles,omitempty"`
	// Probes is the number of measured probes the search spent.
	Probes int `json:"probes,omitempty"`
	// ProbeBudgetMs is the wall budget the search was given, milliseconds.
	ProbeBudgetMs int64 `json:"probe_budget_ms,omitempty"`
	// ModelAgreement is the perfmodel.Reconcile coefficient between the
	// blocking prior's ranking and the measured probe times, recorded so a
	// schedule documents how informative the model was on this host.
	ModelAgreement float64 `json:"model_agreement,omitempty"`
}

// DefaultSchedule returns the schedule equivalent to running with no
// tuning at all: the compile-time blocking and no worker preference.
func DefaultSchedule() Schedule {
	return Schedule{Version: ScheduleVersion, GEMM: cmat.DefaultBlocking()}
}

// Validate checks the schedule is structurally sound and its blocking is
// installable.
func (s *Schedule) Validate() error {
	if s.Version != ScheduleVersion {
		return fmt.Errorf("tune: schedule version %d not supported (this build speaks version %d)",
			s.Version, ScheduleVersion)
	}
	if err := s.GEMM.Validate(); err != nil {
		return fmt.Errorf("tune: schedule: %w", err)
	}
	if s.Workers < 0 {
		return fmt.Errorf("tune: schedule: workers must be non-negative, got %d", s.Workers)
	}
	for i, tl := range s.Tiles {
		if tl.TE < 1 || tl.TA < 1 || tl.TE*tl.TA != tl.Procs {
			return fmt.Errorf("tune: schedule: tile %d: %dx%d does not factorize %d processes",
				i, tl.TE, tl.TA, tl.Procs)
		}
	}
	return nil
}

// Marshal renders the schedule as indented JSON, the format the cache and
// -schedule files use.
func (s *Schedule) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseSchedule decodes and validates a schedule document. Unknown fields
// are rejected so schema typos fail loudly instead of silently running
// defaults.
func ParseSchedule(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("tune: parsing schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ApplyGlobal installs the schedule's process-global part: the cmat GEMM
// blocking. Call it once at startup, before any run begins — swapping
// blocking mid-run changes summation order under running kernels. The
// per-run parts (Workers, Tiles) are read by callers, not installed here.
func (s *Schedule) ApplyGlobal() error {
	return cmat.SetBlocking(s.GEMM)
}

// TileFor returns the recorded decomposition for the given device shape
// and process count, if the schedule holds one.
func (s *Schedule) TileFor(p device.Params, procs int) (Tile, bool) {
	for i := len(s.Tiles) - 1; i >= 0; i-- {
		t := s.Tiles[i]
		if t.NA == p.NA && t.Nkz == p.Nkz && t.NE == p.NE && t.Nw == p.Nw && t.Procs == procs {
			return t, true
		}
	}
	return Tile{}, false
}

// AddTile records (or refreshes) a decomposition in the schedule.
func (s *Schedule) AddTile(t Tile) {
	for i := range s.Tiles {
		if s.Tiles[i].NA == t.NA && s.Tiles[i].Nkz == t.Nkz && s.Tiles[i].NE == t.NE &&
			s.Tiles[i].Nw == t.Nw && s.Tiles[i].Procs == t.Procs {
			s.Tiles[i] = t
			return
		}
	}
	s.Tiles = append(s.Tiles, t)
}

// SearchDecomposition runs the §4.1 exhaustive (TE, TA) search for the
// given device shape and process count under an optional per-process
// memory limit, returning the volume-minimizing decomposition as a
// schedule Tile. The search is model-driven (comm.SearchTiles evaluates
// the closed-form volume formulas), so it costs microseconds and needs no
// probe budget.
func SearchDecomposition(p device.Params, procs int, memLimit float64) (Tile, error) {
	best, feasible := comm.SearchTiles(p, procs, memLimit)
	if len(feasible) == 0 {
		return Tile{}, fmt.Errorf("tune: no feasible decomposition for NA=%d NE=%d over %d processes",
			p.NA, p.NE, procs)
	}
	return Tile{
		NA: p.NA, Nkz: p.Nkz, NE: p.NE, Nw: p.Nw,
		Procs: procs, TE: best.TE, TA: best.TA, Bytes: best.Bytes,
	}, nil
}

// Telemetry of the tuning subsystem (see docs/OBSERVABILITY.md).
var (
	obsProbes      = obs.GetCounter("tune.probes_total")
	obsCacheHits   = obs.GetCounter("tune.cache_hits")
	obsCacheMisses = obs.GetCounter("tune.cache_misses")
	obsSearchSpan  = obs.GetTimer("tune.search")
)
