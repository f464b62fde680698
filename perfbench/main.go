// Command perfbench is the repository benchmark. It drives the simulator
// in-process through the exported APIs of internal/device, core, rgf, sse,
// comm, serve and front, checks every output, and prints one JSON result
// line. From the repository root:
//
//	bash perfbench/run.sh --workload born-serial --seed 1 --seconds 30 --trace 0
//
// Workloads are born-serial, born-dist and serve-mix (see README.md).
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload with spans recorded around the layer calls and
// prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer list every metric the benchmark prints, with its
// unit, in the order of BENCHMARK.json: endToEnd is the --trace 0 set,
// perLayer the --trace 1 set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"heap_peak_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p90", "ms"},
	{"hit_ms_p50", "ms"},
	{"miss_ms_p50", "ms"},
}

var perLayer = []metricDef{
	{"trace.overhead_s", "s"},
	{"device.build_s", "s"},
	{"core.new_s", "s"},
	{"core.born_iters", "count"},
	{"core.gf_s", "s"},
	{"core.sse_s", "s"},
	{"core.mix_s", "s"},
	{"core.self_s", "s"},
	{"rgf.points", "count"},
	{"rgf.boundary_s", "s"},
	{"rgf.electron_s", "s"},
	{"rgf.phonon_s", "s"},
	{"rgf.boundary_share", "ratio"},
	{"sse.preprocess_s", "s"},
	{"sse.sigma_s", "s"},
	{"sse.pi_s", "s"},
	{"sse.sigma_gflops", "computed-GF/s"},
	{"comm.dist_sse_s", "s"},
	{"comm.bytes_per_iter", "bytes"},
	{"comm.model_ratio", "ratio"},
	{"rgf.spatial_s", "s"},
	{"rgf.spatial_bytes", "bytes"},
	{"cmat.gemm_blocked", "count"},
	{"cmat.gemm_naive", "count"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.iters_warm_p50", "count"},
	{"serve.iters_cold_p50", "count"},
	{"front.submit_ms_p50", "ms"},
	{"front.result_ms_p50", "ms"},
	{"front.hit_ratio", "ratio"},
	{"front.join_ratio", "ratio"},
	{"front.warm_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run carries one invocation's settings, checks and metrics.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int

	attempted, failed int
	values            map[string]float64
}

// check counts one checked operation; a non-nil err is a wrong or failed
// answer, reported on stderr (the first few only) and counted in failed.
func (r *run) check(what string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %v\n", what, err)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// result assembles the JSON line for the metric set of this mode; a metric
// the workload did not set is a bug in the benchmark.
func (r *run) result() (resultLine, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted == 0 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

var workloads = map[string]func(*run) error{
	"born-serial": func(r *run) error { return runBorn(r, false) },
	"born-dist":   func(r *run) error { return runBorn(r, true) },
	"serve-mix":   runServeMix,
}

func main() {
	workload := flag.String("workload", "", "born-serial | born-dist | serve-mix")
	seed := flag.Int64("seed", 1, "workload seed (serve-mix request stream)")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(sortedKeys(workloads), "|"))
		os.Exit(2)
	}
	// Threads, ranks and clients stay at or below the CPU count.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		nproc:   nproc,
		values:  map[string]float64{},
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s kernel_schedule=compile-time-default workload=%s seed=%d trace=%d\n",
		nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), *workload, *seed, *trace)

	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printTable(out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the human-readable summary that precedes the JSON line.
func printTable(out resultLine) {
	ratio := float64(out.Failed) / float64(out.Attempted)
	fmt.Printf("fail_ratio = %d/%d = %g\n", out.Failed, out.Attempted, ratio)
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		fmt.Printf("  %-22s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuModel reads the CPU model name for the environment record; "unknown"
// where /proc/cpuinfo is absent.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
