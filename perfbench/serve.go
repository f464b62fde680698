package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"negfsim/internal/core"
	"negfsim/internal/front"
	"negfsim/internal/obs"
	"negfsim/internal/serve"
)

// serveJSON holds the two base configs of the serve-mix request stream:
// the CNT config of examples/campaign.json and a 16-column chain under the
// same solver settings.
//
//go:embed configs/serve.json
var serveJSON []byte

func serveBases() ([]core.RunConfig, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(serveJSON, &raw); err != nil {
		return nil, fmt.Errorf("serve configs: %w", err)
	}
	bases := make([]core.RunConfig, len(raw))
	for i, m := range raw {
		c, err := core.ParseRunConfig(m)
		if err != nil {
			return nil, err
		}
		bases[i] = *c
	}
	return bases, nil
}

// tier is one in-process service stack: a qtsimd scheduler with the
// default serve.Config behind its HTTP API, and a qtfront in front of it
// on its own loopback HTTP server.
type tier struct {
	sched    *serve.Scheduler
	front    *front.Front
	servers  []*http.Server
	serving  sync.WaitGroup
	client   *http.Client
	frontURL string
}

// startTier brings the stack up and returns once the front lists its
// worker as alive and the worker answers its health check.
func startTier() (*tier, error) {
	t := &tier{
		sched:  serve.New(serve.Config{}),
		client: &http.Client{Transport: &http.Transport{}},
	}
	workerURL, err := t.listen(serve.NewAPI(t.sched))
	if err != nil {
		t.stop()
		return nil, err
	}
	t.front = front.New(front.Config{Workers: []string{workerURL}, Client: t.client})
	if t.frontURL, err = t.listen(front.NewAPI(t.front).Handler()); err != nil {
		t.stop()
		return nil, err
	}
	if err := t.get(workerURL+"/healthz", nil); err != nil {
		t.stop()
		return nil, fmt.Errorf("worker health: %w", err)
	}
	var workers []front.WorkerStatus
	if err := t.get(t.frontURL+"/v1/workers", &workers); err != nil || len(workers) != 1 || !workers[0].Alive {
		t.stop()
		return nil, fmt.Errorf("front lists no alive worker: %v %v", workers, err)
	}
	return t, nil
}

// listen serves h on an ephemeral loopback port and returns its base URL.
func (t *tier) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + l.Addr().String(), nil
}

// stop shuts the stack down front first and waits for every goroutine it
// started.
func (t *tier) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Shutdown(ctx) // a timeout leaves nothing to retry
	}
	if t.front != nil {
		_ = t.front.Close(ctx)
	}
	_ = t.sched.Close(ctx)
	t.serving.Wait()
	t.client.CloseIdleConnections()
}

// get fetches url and decodes a JSON body into out (when non-nil).
func (t *tier) get(url string, out any) error {
	resp, err := t.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// answer is one submission as its client saw it.
type answer struct {
	source  front.Source
	key     string
	warm    bool
	doc     serve.ResultDoc
	iters   []serve.IterRecord // streamed iteration log (worker runs only)
	total   time.Duration      // submit to result
	submit  time.Duration      // POST round trip
	result  time.Duration      // GET result round trip
	failure error
}

// submit sends one request through the front and waits for its result:
// POST the config, follow the iteration stream until the run is terminal
// (unless the cache answered), then GET the result document.
func (t *tier) submit(tenant string, cfg core.RunConfig) answer {
	var a answer
	body, err := json.Marshal(cfg)
	if err != nil {
		a.failure = err
		return a
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, t.frontURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		a.failure = err
		return a
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := t.client.Do(req)
	if err != nil {
		a.failure = err
		return a
	}
	var st front.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	a.submit = time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit: %s: %s", resp.Status, st.Error)
	}
	if err != nil {
		a.failure = err
		return a
	}
	a.source, a.key = st.Source, st.Key
	if st.Source != front.SourceCache {
		if a.iters, err = t.stream(st.ID); err != nil {
			a.failure = err
			return a
		}
	}
	t1 := time.Now()
	if err := t.get(t.frontURL+"/v1/jobs/"+st.ID+"/result", &a.doc); err != nil {
		a.failure = err
		return a
	}
	a.result = time.Since(t1)
	a.total = time.Since(t0)
	if st.Source == front.SourceRun {
		// Outside the timed window: whether the run was warm-started.
		var fin front.Status
		if err := t.get(t.frontURL+"/v1/jobs/"+st.ID, &fin); err != nil {
			a.failure = err
			return a
		}
		a.warm = fin.WarmStartBias != nil
	}
	return a
}

// stream reads the job's NDJSON iteration log until the run is terminal.
func (t *tier) stream(id string) ([]serve.IterRecord, error) {
	resp, err := t.client.Get(t.frontURL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	var recs []serve.IterRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec serve.IterRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// round is one pass of the request stream through a fresh service stack.
type round struct {
	setup   time.Duration
	wall    time.Duration // first submit to last result
	answers []answer
	jobs    []serve.Status // the worker's job records
	peakMB  float64
	gemm    gemmCount // GEMM dispatches during the round (traced rounds)
}

// runRound starts a stack, lets the closed-loop clients work through the
// stream (each sends its next request only after the previous answer), and
// stops the stack.
func runRound(stream requestStream, bases []core.RunConfig, clients int, traced bool) (*round, error) {
	runtime.GC() // every round starts from the same heap
	t0 := time.Now()
	t, err := startTier()
	if err != nil {
		return nil, err
	}
	rd := &round{setup: time.Since(t0), answers: make([]answer, len(stream))}
	defer t.stop()

	hs := startHeapSampler()
	c0 := gemmCounts()
	if traced {
		obs.Enable()
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", c)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(stream) {
					return
				}
				rd.answers[i] = t.submit(tenant, stream[i].config(bases))
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	obs.Disable()
	rd.gemm = gemmCounts().sub(c0)
	rd.peakMB = hs.Stop()
	for _, j := range t.sched.Jobs() {
		rd.jobs = append(rd.jobs, j.Status())
	}
	return rd, nil
}

// answerChecker checks every answer for a key against that key's first
// answer: bitwise when it was served from the run that answered the key
// earlier in the same round (a cache hit or a joined run), within refTol
// when a round computed the key again (the warm start depends on which
// neighbours the round had cached).
type answerChecker struct {
	first   map[string]core.Observables // first answer per key, any round
	round   int
	inRound map[string]core.Observables // first answer per key, this round
}

func newAnswerChecker() *answerChecker {
	return &answerChecker{first: map[string]core.Observables{}}
}

func (c *answerChecker) check(round int, a answer) error {
	if a.failure != nil {
		return a.failure
	}
	if !a.doc.Converged {
		return fmt.Errorf("%s: not converged after %d iterations", a.key, a.doc.Iterations)
	}
	if c.inRound == nil || round != c.round {
		c.round, c.inRound = round, map[string]core.Observables{}
	}
	got := a.doc.Observables
	if want, ok := c.inRound[a.key]; ok && a.source != front.SourceRun {
		if got.CurrentL != want.CurrentL || got.CurrentR != want.CurrentR ||
			got.HeatL != want.HeatL || got.HeatR != want.HeatR {
			return fmt.Errorf("%s: %s answer differs from the run that answered the key", a.key, a.source)
		}
		return nil
	}
	c.inRound[a.key] = got
	want, ok := c.first[a.key]
	if !ok {
		c.first[a.key] = got
		return nil
	}
	return errors.Join(near("CurrentL", got.CurrentL, want.CurrentL, refTol),
		near("CurrentR", got.CurrentR, want.CurrentR, refTol))
}

// runServeMix measures the serve-mix workload: rounds of the seeded
// request stream, each through a fresh stack, after one warm-up round.
func runServeMix(r *run) error {
	bases, err := serveBases()
	if err != nil {
		return err
	}
	stream := generate(r.seed)
	clients := min(2, r.nproc)
	checker := newAnswerChecker()
	checkRound := func(no int, rd *round) {
		for _, a := range rd.answers {
			r.check("submission", checker.check(no, a))
		}
	}
	rd, err := runRound(stream, bases, clients, false)
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	checkRound(0, rd)
	if r.trace {
		return serveTraced(r, stream, bases, clients, checkRound)
	}

	var rounds []*round
	deadline := time.Now().Add(r.seconds)
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		rd, err := runRound(stream, bases, clients, false)
		if err != nil {
			return err
		}
		checkRound(len(rounds)+1, rd)
		rounds = append(rounds, rd)
	}

	var setups, peaks, all, hits, misses, runs []float64
	var wall time.Duration
	for _, rd := range rounds {
		setups = append(setups, seconds(rd.setup))
		peaks = append(peaks, rd.peakMB)
		wall += rd.wall
		for _, a := range rd.answers {
			all = append(all, millis(a.total))
			switch a.source {
			case front.SourceCache:
				hits = append(hits, millis(a.total))
			case front.SourceRun:
				misses = append(misses, millis(a.total))
			}
		}
		for _, j := range rd.jobs {
			if j.State == serve.Succeeded {
				runs = append(runs, seconds(j.Finished.Sub(*j.Started)))
			}
		}
	}
	r.set("setup_s", median(setups))
	r.set("solve_s", median(runs))
	r.set("heap_peak_mb", median(peaks))
	r.set("jobs_per_s", float64(len(all))/wall.Seconds())
	r.set("job_ms_p90", quantile(all, 0.9))
	r.set("hit_ms_p50", median(hits))
	r.set("miss_ms_p50", median(misses))
	return nil
}

// serveTraced is the traced run of serve-mix: alternating untraced and
// traced rounds (their wall-time difference is the tracing overhead), the
// service and front layer metrics of the traced rounds, the Born-loop
// breakdown from the worker runs' iteration logs, set-up of the two
// devices, and the layer replay on a direct solve of the most requested
// key.
func serveTraced(r *run, stream requestStream, bases []core.RunConfig, clients int, checkRound func(int, *round)) error {
	var plain, traced []*round
	deadline := time.Now().Add(r.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		for _, tr := range []bool{false, true} {
			rd, err := runRound(stream, bases, clients, tr)
			if err != nil {
				return err
			}
			checkRound(len(plain)+len(traced)+1, rd)
			if tr {
				traced = append(traced, rd)
			} else {
				plain = append(plain, rd)
			}
		}
	}
	wallOf := func(rs []*round) []float64 {
		var out []float64
		for _, rd := range rs {
			out = append(out, seconds(rd.wall))
		}
		return out
	}
	r.set("trace.overhead_s", median(wallOf(traced))-median(wallOf(plain)))

	var queue, runMs, warmIters, coldIters, submit, result, iters, gf, sse, mix, self, blocked, naive []float64
	var attempted, hits, joins, warm int
	for _, rd := range traced {
		for _, j := range rd.jobs {
			if j.State == serve.Succeeded {
				queue = append(queue, millis(j.Started.Sub(j.Queued)))
				runMs = append(runMs, millis(j.Finished.Sub(*j.Started)))
			}
		}
		for _, a := range rd.answers {
			attempted++
			submit = append(submit, millis(a.submit))
			result = append(result, millis(a.result))
			switch a.source {
			case front.SourceCache:
				hits++
			case front.SourceJoined:
				joins++
			case front.SourceRun:
				if a.warm {
					warm++
					warmIters = append(warmIters, float64(a.doc.Iterations))
				} else {
					coldIters = append(coldIters, float64(a.doc.Iterations))
				}
				var w, g, s, m int64
				for _, rec := range a.iters {
					w, g, s, m = w+rec.WallNs, g+rec.GFNs, s+rec.SSENs, m+rec.MixNs
				}
				iters = append(iters, float64(len(a.iters)))
				gf = append(gf, float64(g)/1e9)
				sse = append(sse, float64(s)/1e9)
				mix = append(mix, float64(m)/1e9)
				self = append(self, float64(w-g-s-m)/1e9)
			}
		}
		blocked = append(blocked, float64(rd.gemm.blocked))
		naive = append(naive, float64(rd.gemm.naive))
	}
	r.set("serve.queue_ms_p50", median(queue))
	r.set("serve.run_ms_p50", median(runMs))
	r.set("serve.iters_warm_p50", orZero(median(warmIters)))
	r.set("serve.iters_cold_p50", orZero(median(coldIters)))
	r.set("front.submit_ms_p50", median(submit))
	r.set("front.result_ms_p50", median(result))
	r.set("front.hit_ratio", float64(hits)/float64(attempted))
	r.set("front.join_ratio", float64(joins)/float64(attempted))
	r.set("front.warm_ratio", float64(warm)/float64(attempted))
	r.set("core.born_iters", median(iters))
	r.set("core.gf_s", median(gf))
	r.set("core.sse_s", median(sse))
	r.set("core.mix_s", median(mix))
	r.set("core.self_s", median(self))
	r.set("cmat.gemm_blocked", median(blocked))
	r.set("cmat.gemm_naive", median(naive))

	var builds, news []float64
	for i := 0; i < setupRepeats; i++ {
		var devTime, newTime time.Duration
		for _, cfg := range bases {
			b := &bornWorkload{cfg: cfg}
			d, n, err := b.build()
			if err != nil {
				return err
			}
			devTime, newTime = devTime+d, newTime+n
		}
		builds = append(builds, seconds(devTime))
		news = append(news, seconds(newTime))
	}
	r.set("device.build_s", median(builds))
	r.set("core.new_s", median(news))

	// The replay runs on the per-job worker share of the default
	// serve.Config: GOMAXPROCS over its 2 concurrent jobs.
	top := stream.mostRequested().config(bases)
	top.Workers = max(1, r.nproc/2)
	sim, err := top.NewSimulator()
	if err != nil {
		return err
	}
	res, err := sim.Run()
	r.check("direct solve", func() error {
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("not converged after %d iterations", res.Iterations)
		}
		return nil
	}())
	if err != nil {
		return err
	}
	return replayLayers(r, sim, res)
}
