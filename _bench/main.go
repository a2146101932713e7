// Command vixbench is the repository's benchmark: one binary that runs a
// named workload for a fixed wall-clock budget, checks that the
// simulated output is correct, and prints every metric by name and unit.
// See README.md in this directory for the workloads, the metrics and the
// layer map; run.sh builds and runs it from the repository root.
//
// The last line of standard output is the result object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// per-layer metrics of a separate traced run. The line before it is the
// run report: host fingerprint, raw per-run samples and the simulated
// statistics that were checked.
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

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what one workload execution produces.
type run struct {
	attempted, failed int
	metrics           map[string]metric
	// report is printed as the run report: raw samples, simulated
	// statistics, digests and notes.
	report map[string]any
}

func newRun() *run {
	return &run{metrics: map[string]metric{}, report: map[string]any{}}
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records n failed operations with the reason in the report.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	errs, _ := r.report["errors"].([]string)
	if len(errs) < 20 {
		r.report["errors"] = append(errs, fmt.Sprintf(format, args...))
	}
}

// opts are the command-line settings shared by every workload.
type opts struct {
	seed    uint64
	budget  time.Duration
	dir     string // scratch directory for stores and traces
	workers int    // vixd runners: the host's CPU count (nproc), never more
}

// workload is one named benchmark workload: a network workload (mesh)
// or a vixd suite (grid). README.md records why each was chosen.
type workload struct {
	name string
	mesh *meshSpec
	grid *gridSpec
}

func workloads() []workload {
	return []workload{
		{name: mesh8x8Sat.name, mesh: &mesh8x8Sat},
		{name: mesh32x32Low.name, mesh: &mesh32x32Low},
		{name: fig8Grid.name, grid: &fig8Grid},
	}
}

// execute runs a workload in end-to-end (traced=false) or per-layer
// (traced=true) mode. A traced run adds the isolated-router fixture.
func execute(w workload, o opts, traced bool) (*run, error) {
	var r *run
	var err error
	if w.mesh != nil {
		r, err = runMesh(*w.mesh, o, traced)
	} else {
		r, err = runGrid(*w.grid, o, traced)
	}
	if err != nil || !traced {
		return r, err
	}
	fx, err := runRouterFixture(o.seed)
	if err != nil {
		return nil, err
	}
	r.set("router.tick_ns", fx.tickNs, "ns")
	r.set("router.self_ns", fx.selfNs, "ns")
	r.set("router.grants_per_tick", fx.grantsPerTick, "count")
	return r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "scratch directory inside the checkout")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "vixbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, trace int, dir string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	var w *workload
	var names []string
	for _, c := range workloads() {
		names = append(names, c.name)
		if c.name == name {
			w = &c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	o := opts{seed: seed, budget: time.Duration(seconds * float64(time.Second)), dir: dir, workers: runtime.NumCPU()}
	r, err := execute(*w, o, trace == 1)
	if err != nil {
		return err
	}
	r.report["workload"] = w.name
	r.report["seed"] = seed
	r.report["trace"] = trace
	r.report["host"] = fingerprint(o.workers)
	if err := printJSON(map[string]any{"report": r.report}); err != nil {
		return err
	}
	return printJSON(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", data)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quantiles summarises a sample set for the run report.
func quantiles(xs []float64) map[string]float64 {
	return map[string]float64{
		"n": float64(len(xs)), "p10": quantile(xs, 0.1), "p25": quantile(xs, 0.25),
		"p50": quantile(xs, 0.5), "p90": quantile(xs, 0.9), "p99": quantile(xs, 0.99),
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
