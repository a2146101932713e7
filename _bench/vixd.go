package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"vix/internal/alloc"
	"vix/internal/config"
	"vix/internal/service"
	"vix/internal/sim"
	"vix/internal/store"
)

// gridSpec is a Figure 8 style grid: every network scheme at every
// offered rate plus a saturation point, on the 8x8 mesh.
type gridSpec struct {
	name            string
	rates           []float64
	warmup, measure int
	// replays is how many cached replays one session makes.
	replays int
}

var (
	// The vixd-fig8 workload's suite: IF, WF, AP and VIX at four rates
	// and saturation, 20 cases.
	fig8Grid = gridSpec{name: "vixd-fig8", rates: []float64{0.02, 0.04, 0.06, 0.08}, warmup: 500, measure: 2000, replays: 300}
	// The service-layer probe the traced mesh runs use, so every traced
	// run reports the harness, service and store layers.
	probeGrid = gridSpec{name: "service-probe", rates: []float64{0.04}, warmup: 100, measure: 300, replays: 1000}
)

// scheme is one network configuration of the paper's Figure 8.
type scheme struct {
	label  string
	kind   alloc.Kind
	k      int
	policy string
}

var fig8Schemes = []scheme{
	{"IF", alloc.KindSeparableIF, 1, "maxfree"},
	{"WF", alloc.KindWavefront, 1, "maxfree"},
	{"AP", alloc.KindAugmentingPath, 1, "maxfree"},
	{"VIX", alloc.KindSeparableIF, 2, "balanced"},
}

// gridCase is one case of the suite.
type gridCase struct {
	Name   string            `json:"name"`
	Spec   config.Experiment `json:"spec"`
	scheme string
}

// cases generates the suite for a seed; every case's simulation seed is
// derived from it.
func (g gridSpec) cases(seed uint64) []gridCase {
	var out []gridCase
	for _, s := range fig8Schemes {
		points := append(append([]float64(nil), g.rates...), 0)
		for _, rate := range points {
			e := config.Default()
			e.VirtualInputs = s.k
			e.Allocator = string(s.kind)
			e.Policy = s.policy
			label := "saturation"
			if rate > 0 {
				e.InjectionRate = rate
				label = fmt.Sprintf("%g", rate)
			} else {
				e.MaxInjection = true
			}
			e.Warmup, e.Measure = g.warmup, g.measure
			e.Seed = sim.DeriveSeed(seed, g.name, s.label, label)
			out = append(out, gridCase{Name: s.label + "/" + label, Spec: e, scheme: s.label})
		}
	}
	return out
}

// suiteBody is the POST /suites request: the whole grid, closed at once.
func suiteBody(cases []gridCase) ([]byte, error) {
	return json.Marshal(struct {
		Name  string     `json:"name"`
		Cases []gridCase `json:"cases"`
		Close bool       `json:"close"`
	}{Name: "fig8", Cases: cases, Close: true})
}

// vixd is one in-process server on a fresh store behind a loopback
// listener.
type vixd struct {
	st     *store.Store
	srv    *service.Server
	ts     *httptest.Server
	path   string
	client *http.Client
}

// startVixd opens a fresh store file, starts the service with one runner
// per CPU and quotas off, and puts it behind a loopback listener.
func startVixd(o opts) (*vixd, error) {
	f, err := os.CreateTemp(o.dir, "store-*.jsonl")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, err
	}
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Store: st, Runners: o.workers, Workers: 1})
	if err != nil {
		st.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &vixd{st: st, srv: srv, ts: ts, path: path, client: ts.Client()}, nil
}

// stop shuts the listener, drains the service and removes the store.
func (v *vixd) stop() error {
	v.ts.Close()
	err := errors.Join(v.srv.Close(), v.st.Close())
	return errors.Join(err, os.Remove(v.path))
}

// suitePass is one POST of the grid streamed to its last line.
type suitePass struct {
	id                 string
	post, first, total time.Duration
	stream             []byte
	lines              []resultLine
}

type resultLine struct {
	Case   string `json:"case"`
	Name   string `json:"name"`
	ID     string `json:"id"`
	Status string `json:"status"`
}

// runSuite posts the suite and reads the JSONL result stream to its end.
func (v *vixd) runSuite(body []byte) (suitePass, error) {
	var p suitePass
	start := time.Now()
	resp, err := v.client.Post(v.ts.URL+"/suites", "application/json", bytes.NewReader(body))
	if err != nil {
		return p, err
	}
	var sub struct {
		Suite string `json:"suite"`
	}
	err = decodeResponse(resp, http.StatusCreated, &sub)
	p.post = time.Since(start)
	if err != nil {
		return p, fmt.Errorf("POST /suites: %w", err)
	}
	p.id = sub.Suite
	resp, err = v.client.Get(v.ts.URL + "/suites/" + sub.Suite + "/results")
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("GET results: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if p.first == 0 {
				p.first = time.Since(start)
			}
			buf.Write(line)
			var rl resultLine
			if jerr := json.Unmarshal(line, &rl); jerr != nil {
				return p, fmt.Errorf("result line: %w", jerr)
			}
			p.lines = append(p.lines, rl)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return p, err
		}
	}
	p.total = time.Since(start)
	p.stream = buf.Bytes()
	return p, nil
}

// caseWalls reads each case's wall time from GET /suites/{id}.
func (v *vixd) caseWalls(id string) ([]int64, error) {
	resp, err := v.client.Get(v.ts.URL + "/suites/" + id)
	if err != nil {
		return nil, err
	}
	var st struct {
		Cases []struct {
			WallNanos int64 `json:"wall_ns"`
		} `json:"cases"`
	}
	if err := decodeResponse(resp, http.StatusOK, &st); err != nil {
		return nil, fmt.Errorf("GET /suites/%s: %w", id, err)
	}
	out := make([]int64, len(st.Cases))
	for i, c := range st.Cases {
		out[i] = c.WallNanos
	}
	return out, nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// checkPass counts the failed cases of one pass: a missing line, a
// status other than done, or (for a cached replay) any byte that differs
// from the fresh stream.
func checkPass(r *run, what string, cases []gridCase, p suitePass, fresh []byte) {
	r.attempted += len(cases)
	failed := 0
	for i := range cases {
		if i >= len(p.lines) {
			failed++
			continue
		}
		if p.lines[i].Status != "done" {
			failed++
		}
	}
	if failed == 0 && fresh != nil && !bytes.Equal(p.stream, fresh) {
		failed = len(cases)
	}
	if failed > 0 {
		r.fail(failed, "%s: %d of %d cases failed", what, failed, len(cases))
	}
}

// session is one server lifetime: a fresh pass that simulates and
// writes the store, then cached replays that only read it.
type session struct {
	fresh   suitePass
	replays []float64 // ms, POST to last line
	posts   []float64 // ms, every POST of the session
	digest  string

	// Traced sessions only.
	traced bool
	walls  []int64 // per-case wall_ns of the fresh pass
	stats  store.Stats
	hitUs  []float64
}

// runSession runs one session and checks its passes. A session whose
// fresh pass fails is counted as failed and returns nil.
func runSession(r *run, o opts, g gridSpec, cases []gridCase, body []byte, traced bool) (*session, error) {
	runtime.GC()
	v, err := startVixd(o)
	if err != nil {
		return nil, err
	}
	s := &session{traced: traced}
	defer func() {
		if err := v.stop(); err != nil {
			r.fail(1, "stopping vixd: %v", err)
		}
	}()
	s.fresh, err = v.runSuite(body)
	if err != nil {
		r.attempted += len(cases)
		r.fail(len(cases), "fresh pass: %v", err)
		return nil, nil
	}
	checkPass(r, "fresh pass", cases, s.fresh, nil)
	sum := sha256.Sum256(s.fresh.stream)
	s.digest = hex.EncodeToString(sum[:8])
	s.posts = append(s.posts, ms(s.fresh.post))
	if traced {
		if s.walls, err = v.caseWalls(s.fresh.id); err != nil {
			r.fail(1, "%v", err)
		}
	}
	for i := 0; i < g.replays; i++ {
		p, err := v.runSuite(body)
		if err != nil {
			r.attempted += len(cases)
			r.fail(len(cases), "cached replay %d: %v", i, err)
			continue
		}
		checkPass(r, fmt.Sprintf("cached replay %d", i), cases, p, s.fresh.stream)
		s.replays = append(s.replays, ms(p.total))
		s.posts = append(s.posts, ms(p.post))
	}
	if traced {
		s.stats = v.srv.StoreStats()
		s.hitUs = timeStoreHits(v.st, s.fresh.lines)
	}
	return s, nil
}

// timeStoreHits times Store.Do directly on the warm store, once per
// stored case, several rounds; every call must be a hit.
func timeStoreHits(st *store.Store, lines []resultLine) []float64 {
	var out []float64
	compute := func() (store.Entry, error) { return store.Entry{}, errors.New("unexpected store miss") }
	for round := 0; round < 50; round++ {
		for _, l := range lines {
			start := time.Now()
			_, outcome, err := st.Do(context.Background(), l.ID, compute)
			d := time.Since(start)
			if err != nil || outcome != store.Hit {
				continue
			}
			out = append(out, float64(d)/float64(time.Microsecond))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vixdSetupSamples times service construction alone: store open, service
// start and listener, several times, each from a heap with no free pages
// (see setupSamples).
func vixdSetupSamples(o opts, reps int) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		v, err := startVixd(o)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if err := v.stop(); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func runGrid(g gridSpec, o opts, traced bool) (*run, error) {
	cases := g.cases(o.seed)
	body, err := suiteBody(cases)
	if err != nil {
		return nil, err
	}
	r := newRun()
	setup, err := vixdSetupSamples(o, setupReps)
	if err != nil {
		return nil, err
	}
	want, committed := committedDigest(g.name, o.seed)
	var sessions []*session
	deadline := time.Now().Add(o.budget)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		s, err := runSession(r, o, g, cases, body, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		if s == nil {
			continue
		}
		if len(sessions) > 0 && s.digest != sessions[0].digest {
			r.fail(1, "session %d: stream digest %s differs from session 0's %s", i, s.digest, sessions[0].digest)
		}
		if committed && s.digest != want {
			r.fail(1, "session %d: stream digest %s differs from the committed %s for seed %d", i, s.digest, want, o.seed)
		}
		sessions = append(sessions, s)
	}
	if len(sessions) == 0 {
		return r, nil
	}
	var cycles int64
	for _, c := range cases {
		cycles += int64(c.Spec.Warmup + c.Spec.Measure)
	}
	var fresh, freshTraced, cps, replays []float64
	for _, s := range sessions {
		if s.traced {
			freshTraced = append(freshTraced, s.fresh.total.Seconds())
			continue
		}
		fresh = append(fresh, s.fresh.total.Seconds())
		cps = append(cps, float64(cycles)/s.fresh.total.Seconds())
		replays = append(replays, s.replays...)
	}
	r.report["simulated"] = map[string]any{
		"stream_digest": sessions[0].digest,
		"digest_check":  digestCheck(committed),
		"cases":         len(cases),
		"cycles":        cycles,
		"note":          "result streams are checked for identity (committed digest, fresh vs cached byte-identity), not for accuracy; accuracy against the paper lives in EXPERIMENTS.md",
	}
	r.report["samples"] = map[string]any{
		"setup_s":              setup,
		"suite_fresh_s":        fresh,
		"suite_fresh_s_traced": freshTraced,
		"cycles_per_s":         cps,
		"cached_replay_ms":     quantiles(replays),
		"runners":              o.workers,
	}
	if !traced {
		r.set("cycles_per_s", median(cps), "cycles/s")
		r.set("setup_s", median(setup), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.set("suite_fresh_s", median(fresh), "s")
		r.set("suite_cached_p50_ms", quantile(replays, 0.50), "ms")
		return r, nil
	}
	serviceLayerMetrics(r, cases, sessions, o.workers)
	r.set("trace.overhead_pct", 100*(ratio(median(freshTraced), median(fresh))-1), "%")
	// The network and alloc layers behind the suite: every case of the
	// grid driven directly through network.New and Step with the timing
	// wrapper, as the service's runners drive them.
	var reps []meshRep
	for _, c := range cases {
		cfg, err := c.Spec.Build()
		if err != nil {
			return nil, err
		}
		cfg.Workers = 1
		rep, err := runNetRep(cfg, c.Spec.Warmup, c.Spec.Measure, c.Spec.Measure, true)
		r.attempted++
		if err != nil {
			r.fail(1, "%s: %v", c.Name, err)
			continue
		}
		reps = append(reps, rep)
	}
	meshLayerMetrics(r, reps)
	return r, nil
}

// serviceLayerMetrics reports the harness, service and store layers from
// the traced sessions.
func serviceLayerMetrics(r *run, cases []gridCase, sessions []*session, runners int) {
	perScheme := map[string][]float64{}
	var busy, firstLine, queueWait, posts, replays, hitUs []float64
	var st store.Stats
	for _, s := range sessions {
		posts = append(posts, s.posts...)
		replays = append(replays, s.replays...)
		if !s.traced || len(s.walls) != len(cases) {
			continue
		}
		var total int64
		for i, w := range s.walls {
			perScheme[cases[i].scheme] = append(perScheme[cases[i].scheme], float64(w)/1e6)
			total += w
		}
		busy = append(busy, float64(total)/(float64(runners)*float64(s.fresh.total)))
		firstLine = append(firstLine, ms(s.fresh.first))
		queueWait = append(queueWait, fifoQueueWaitMs(s.walls, runners))
		hitUs = append(hitUs, s.hitUs...)
		st = s.stats
	}
	for _, sc := range fig8Schemes {
		r.set("harness.case_wall_ms."+sc.label, median(perScheme[sc.label]), "ms")
	}
	r.set("harness.runner_busy_ratio", median(busy), "ratio")
	r.set("service.post_ms", median(posts), "ms")
	r.set("service.first_line_ms", median(firstLine), "ms")
	r.set("service.queue_wait_ms", median(queueWait), "ms")
	r.set("service.cached_p99_ms", quantile(replays, 0.99), "ms")
	r.set("store.hits", float64(st.Hits), "count")
	r.set("store.misses", float64(st.Misses), "count")
	r.set("store.dedup", float64(st.InflightDedup), "count")
	r.set("store.hit_us", median(hitUs), "us")
}

// fifoQueueWaitMs replays the service's FIFO queue over the measured case
// wall times: each case starts on the first runner to free up. It returns
// the mean time a case waited for a runner, in ms.
func fifoQueueWaitMs(walls []int64, runners int) float64 {
	free := make([]int64, runners)
	var wait int64
	for _, w := range walls {
		sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
		wait += free[0]
		free[0] += w
	}
	return float64(wait) / float64(len(walls)) / 1e6
}

// probeLayers runs the service-layer probe so a traced mesh run reports
// the harness, service and store layers too. Its figures describe the
// probe grid, not the mesh workload.
func probeLayers(r *run, o opts) error {
	g := probeGrid
	cases := g.cases(o.seed)
	body, err := suiteBody(cases)
	if err != nil {
		return err
	}
	s, err := runSession(r, o, g, cases, body, true)
	if err != nil {
		return err
	}
	if s == nil {
		return nil
	}
	serviceLayerMetrics(r, cases, []*session{s}, o.workers)
	return nil
}
