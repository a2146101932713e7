package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"vix/internal/config"
	"vix/internal/network"
	"vix/internal/sim"
	"vix/internal/stats"
)

// meshSpec is one network workload. Every repetition builds a fresh
// network, runs a fixed warmup and a fixed measured window, so each
// repetition's statistics digest is a pure function of (workload, seed).
type meshSpec struct {
	name    string
	width   int
	rate    float64 // offered packets/node/cycle; 0 means max injection
	warmup  int     // cycles per repetition before the window
	measure int     // measured cycles per repetition
	batch   int     // cycles per warm-batch latency sample
}

var (
	// The paper's configuration and the inner loop of every sweep.
	mesh8x8Sat = meshSpec{name: "mesh8x8-vix-sat", width: 8, warmup: 1000, measure: 6000, batch: 40}
	// 0.002 pkt/node/cycle is about 8% of the measured 32x32 saturation
	// throughput (0.024): the activity gate skips most router ticks.
	mesh32x32Low = meshSpec{name: "mesh32x32-vix-low", width: 32, rate: 0.002, warmup: 1000, measure: 6000, batch: 50}
)

// experiment returns the workload's spec for a seed: an 8x8 or 32x32
// mesh, 6 VCs x 5 flits, separable input-first allocation with k = 2
// (VIX) and the balanced policy, uniform traffic of 4-flit packets.
func (m meshSpec) experiment(seed uint64) config.Experiment {
	e := config.Default()
	e.Width, e.Height = m.width, m.width
	e.VirtualInputs = 2
	e.Policy = "balanced"
	e.MaxInjection = m.rate == 0
	if m.rate > 0 {
		e.InjectionRate = m.rate
	}
	e.Warmup, e.Measure = m.warmup, m.measure
	e.Seed = sim.DeriveSeed(seed, m.name)
	return e
}

// netConfig resolves the spec into a network configuration.
func (m meshSpec) netConfig(seed uint64) (network.Config, error) {
	e := m.experiment(seed)
	if err := e.Validate(); err != nil {
		return network.Config{}, err
	}
	cfg, err := e.Build()
	if err != nil {
		return network.Config{}, err
	}
	cfg.Workers = 1
	return cfg, nil
}

// digestSnapshot is the identity of a simulated window: a hash of every
// statistic the collector reports.
func digestSnapshot(s stats.Snapshot) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s)))
	return hex.EncodeToString(sum[:8])
}

// meshRep is one repetition's measurements.
type meshRep struct {
	wall    time.Duration // New through the end of the window
	measure time.Duration // the measured window alone
	batches []float64     // ms per warm batch
	snap    stats.Snapshot
	digest  string

	// Traced repetitions only.
	traced             bool
	stepNs, allocNs    []int64 // one span per cycle, children summed
	ticks              int64
	inflight, srcQueue int64 // sums of per-cycle samples
	alloc              allocCounts

	mallocs, allocBytes uint64 // in the window
}

// runNetRep builds a fresh network and runs one repetition: warmup
// cycles, then measure cycles timed in batches of batch cycles. A traced
// repetition swaps in the allocator timing wrapper, records one Step
// span per cycle with its Allocate time, samples the network's gauges
// and reads MemStats around the window (the spans are preallocated, so
// the window itself allocates only what the simulator does). A panic
// inside the simulator is returned as an error so it counts as a failed
// operation.
func runNetRep(cfg network.Config, warmup, measure, batch int, traced bool) (rep meshRep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulator panic: %v", p)
		}
	}()
	if traced {
		cfg.Router.AllocKind = timedKind(cfg.Router.AllocKind)
	}
	// Collect the previous repetition's network first, so it is neither
	// billed to this one nor stacked on it in the peak RSS.
	runtime.GC()
	start := time.Now()
	n, err := network.New(cfg)
	if err != nil {
		return rep, err
	}
	defer n.Close()
	wrappers := takeTimed()
	n.Warmup(warmup)

	rep.traced = traced
	rep.batches = make([]float64, 0, measure/batch+1)
	var ms0 runtime.MemStats
	if traced {
		rep.stepNs = make([]int64, measure)
		rep.allocNs = make([]int64, measure)
		runtime.ReadMemStats(&ms0)
	}
	ticks0 := n.RouterTicks()
	counts0 := sumCounts(wrappers)
	lastAlloc := counts0.Nanos
	winStart := time.Now()
	for c := 0; c < measure; {
		bStart := time.Now()
		end := min(c+batch, measure)
		if !traced {
			for ; c < end; c++ {
				n.Step()
			}
		} else {
			for ; c < end; c++ {
				s := time.Now()
				n.Step()
				rep.stepNs[c] = int64(time.Since(s))
				var a int64
				for _, w := range wrappers {
					a += w.counts.Nanos
				}
				rep.allocNs[c] = a - lastAlloc
				lastAlloc = a
				rep.inflight += n.InFlight()
				rep.srcQueue += n.QueuedAtSources()
			}
		}
		rep.batches = append(rep.batches, float64(time.Since(bStart))/float64(time.Millisecond))
	}
	rep.measure = time.Since(winStart)
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rep.mallocs = ms1.Mallocs - ms0.Mallocs
		rep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	rep.snap = n.Collector().Snapshot()
	rep.wall = time.Since(start)
	rep.digest = digestSnapshot(rep.snap)
	rep.ticks = n.RouterTicks() - ticks0
	rep.alloc = sumCounts(wrappers).minus(counts0)
	return rep, nil
}

// setupSamples times network construction alone, several times. Before
// each one the heap is collected and its free pages are returned to the
// OS, so every construction starts as in a fresh process: paying for
// its page faults, and never for earlier garbage.
func setupSamples(cfg network.Config, reps int) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		n, err := network.New(cfg)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		n.Close()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupReps is how many constructions setup_s takes its median over.
const setupReps = 41

// minReps is the fewest repetitions a run makes, however short its budget.
const minReps = 3

func runMesh(m meshSpec, o opts, traced bool) (*run, error) {
	cfg, err := m.netConfig(o.seed)
	if err != nil {
		return nil, err
	}
	r := newRun()
	setup, err := setupSamples(cfg, setupReps)
	if err != nil {
		return nil, err
	}
	want, committed := committedDigest(m.name, o.seed)
	var reps []meshRep
	deadline := time.Now().Add(o.budget)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		// A traced run interleaves untraced and traced repetitions so the
		// tracing overhead is measured under the same host conditions.
		tracedRep := traced && i%2 == 1
		rep, err := runNetRep(cfg, m.warmup, m.measure, m.batch, tracedRep)
		r.attempted++
		if err != nil {
			r.fail(1, "repetition %d: %v", i, err)
			continue
		}
		if len(reps) > 0 && rep.digest != reps[0].digest {
			r.fail(1, "repetition %d: digest %s differs from repetition 0's %s", i, rep.digest, reps[0].digest)
		}
		if committed && rep.digest != want {
			r.fail(1, "repetition %d: digest %s differs from the committed %s for seed %d", i, rep.digest, want, o.seed)
		}
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		r.report["note"] = "every repetition failed"
		return r, nil
	}

	var cps, walls, batches, cpsTraced []float64
	for _, rep := range reps {
		c := float64(m.measure) / rep.measure.Seconds()
		if rep.traced {
			cpsTraced = append(cpsTraced, c)
			continue
		}
		cps = append(cps, c)
		walls = append(walls, rep.wall.Seconds())
		batches = append(batches, rep.batches...)
	}
	snap := reps[0].snap
	r.report["simulated"] = map[string]any{
		"digest":             reps[0].digest,
		"digest_check":       digestCheck(committed),
		"throughput_flits":   snap.ThroughputFlits,
		"throughput_packets": snap.ThroughputPackets,
		"avg_latency":        snap.AvgLatency,
		"p99_latency":        snap.P99Latency,
		"cycles_per_rep":     m.warmup + m.measure,
		"note":               "simulated statistics are checked for identity against committed digests, not for accuracy; accuracy against the paper lives in EXPERIMENTS.md",
	}
	r.report["samples"] = map[string]any{
		"setup_s":             setup,
		"cycles_per_s":        cps,
		"cycles_per_s_traced": cpsTraced,
		"rep_wall_s":          walls,
		"batch_ms":            quantiles(batches),
		"batch_cycles":        m.batch,
	}
	if !traced {
		r.set("cycles_per_s", median(cps), "cycles/s")
		r.set("setup_s", median(setup), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.set("suite_fresh_s", median(walls), "s")
		r.set("suite_cached_p50_ms", quantile(batches, 0.50), "ms")
		return r, nil
	}
	meshLayerMetrics(r, reps)
	r.set("trace.overhead_pct", 100*(ratio(median(cps), median(cpsTraced))-1), "%")
	if err := writeSpans(o, m.name, reps); err != nil {
		return nil, err
	}
	if err := probeLayers(r, o); err != nil {
		return nil, err
	}
	return r, nil
}

// digestCheck names how a run's simulated output was checked.
func digestCheck(committed bool) string {
	if committed {
		return "every repetition equals the committed digest for this seed"
	}
	return "no committed digest for this seed: every repetition must equal the first"
}

// meshLayerMetrics derives the network and alloc layer metrics from the
// traced repetitions.
func meshLayerMetrics(r *run, reps []meshRep) {
	var cycles, step, allocNs, ticks, inflight, srcQ, hops, mallocs, bytes float64
	var ac allocCounts
	for _, rep := range reps {
		if !rep.traced {
			continue
		}
		cycles += float64(len(rep.stepNs))
		mallocs += float64(rep.mallocs)
		bytes += float64(rep.allocBytes)
		for i := range rep.stepNs {
			step += float64(rep.stepNs[i])
			allocNs += float64(rep.allocNs[i])
		}
		ticks += float64(rep.ticks)
		inflight += float64(rep.inflight)
		srcQ += float64(rep.srcQueue)
		hops += float64(rep.snap.XbarTraversals)
		ac.add(rep.alloc)
	}
	r.set("network.step_ns_per_cycle", ratio(step, cycles), "ns")
	r.set("network.self_ns_per_cycle", ratio(step-allocNs, cycles), "ns")
	r.set("network.router_ticks_per_cycle", ratio(ticks, cycles), "count")
	r.set("network.inflight_flits", ratio(inflight, cycles), "count")
	r.set("network.source_queue_flits", ratio(srcQ, cycles), "count")
	r.set("network.alloc_bytes_per_cycle", ratio(bytes, cycles), "B")
	r.set("network.mallocs_per_cycle", ratio(mallocs, cycles), "count")
	r.set("network.flit_hops_per_cycle", ratio(hops, cycles), "count")
	r.set("network.host_ns_per_flit_hop", ratio(step, hops), "ns")
	allocLayerMetrics(r, ac, cycles)
}

// allocLayerMetrics reports the timing wrapper's counters over a window
// of the given number of network cycles.
func allocLayerMetrics(r *run, ac allocCounts, cycles float64) {
	r.set("alloc.allocate_ns_per_cycle", ratio(float64(ac.Nanos), cycles), "ns")
	r.set("alloc.ns_per_call", ratio(float64(ac.Nanos), float64(ac.Calls)), "ns")
	r.set("alloc.calls_per_cycle", ratio(float64(ac.Calls), cycles), "count")
	r.set("alloc.empty_calls_per_cycle", ratio(float64(ac.EmptyCalls), cycles), "count")
	r.set("alloc.requests_per_call", ratio(float64(ac.Requests), float64(ac.Calls)), "count")
	r.set("alloc.grants_per_call", ratio(float64(ac.Grants), float64(ac.Calls)), "count")
	r.set("alloc.match_ratio", ratio(float64(ac.Grants), float64(ac.Requests)), "ratio")
	r.set("alloc.dual_grant_ratio", ratio(float64(ac.DualGrants), float64(ac.Grants)), "ratio")
}

// writeSpans writes the traced repetitions' per-cycle spans, kept in
// memory during the run, as CSV under the scratch directory.
func writeSpans(o opts, name string, reps []meshRep) error {
	var b strings.Builder
	b.WriteString("rep,cycle,network.step_ns,alloc.allocate_ns\n")
	for i, rep := range reps {
		for c := range rep.stepNs {
			fmt.Fprintf(&b, "%d,%d,%d,%d\n", i, c, rep.stepNs[c], rep.allocNs[c])
		}
	}
	path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.csv", name, o.seed))
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
