package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// shrunk returns the workloads with their simulated work cut down, so
// the tests exercise every code path in seconds. Names, metrics and
// checks are unchanged.
func shrunk() []workload {
	ws := workloads()
	for i := range ws {
		if m := ws[i].mesh; m != nil {
			small := *m
			small.warmup, small.measure, small.batch = 20, 40, 10
			ws[i].mesh = &small
		}
		if g := ws[i].grid; g != nil {
			small := *g
			small.warmup, small.measure, small.replays = 20, 40, 3
			ws[i].grid = &small
		}
	}
	return ws
}

// quick runs every operation the minimum number of times. The shrunk
// workloads simulate less than the real ones, so their digests are not
// the committed ones: the table is emptied for the test.
func quick(t *testing.T, seed uint64) opts {
	saved := committedDigests
	committedDigests = map[string]map[uint64]string{}
	t.Cleanup(func() { committedDigests = saved })
	return opts{seed: seed, budget: 1, dir: t.TempDir(), workers: 2}
}

func TestSeedDeterminesWorkload(t *testing.T) {
	for _, w := range workloads() {
		gen := func(seed uint64) []byte {
			var v any
			if w.mesh != nil {
				v = w.mesh.experiment(seed)
			} else {
				v = w.grid.cases(seed)
			}
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: different seeds generated identical inputs", w.name)
		}
	}
}

func TestPerturbedDigestIsCountedAsFailure(t *testing.T) {
	for _, w := range shrunk() {
		if w.name != "mesh8x8-vix-sat" && w.name != "vixd-fig8" {
			continue
		}
		o := quick(t, 3)
		clean, err := execute(w, o, false)
		if err != nil {
			t.Fatal(err)
		}
		if clean.failed != 0 || clean.attempted == 0 {
			t.Fatalf("%s: clean run failed %d of %d: %v", w.name, clean.failed, clean.attempted, clean.report["errors"])
		}
		committedDigests[w.name] = map[uint64]string{o.seed: "0000000000000000"}
		bad, err := execute(w, o, false)
		if err != nil {
			t.Fatal(err)
		}
		if bad.failed == 0 {
			t.Errorf("%s: a perturbed committed digest was not counted as a failure", w.name)
		}
	}
}

func TestCachedStreamMismatchFailsEveryCase(t *testing.T) {
	cases := fig8Grid.cases(1)
	p := suitePass{stream: []byte("a\n")}
	for range cases {
		p.lines = append(p.lines, resultLine{Status: "done"})
	}
	r := newRun()
	checkPass(r, "replay", cases, p, []byte("b\n"))
	if r.failed != len(cases) || r.attempted != len(cases) {
		t.Errorf("failed %d of %d, want %d of %d", r.failed, r.attempted, len(cases), len(cases))
	}
	r = newRun()
	checkPass(r, "replay", cases, suitePass{lines: p.lines[:len(cases)-1], stream: p.stream}, nil)
	if r.failed != 1 {
		t.Errorf("a missing result line counted %d failures, want 1", r.failed)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkNamesAreEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var workloadNames []string
	for _, w := range spec.Workloads {
		check(w.Name)
		workloadNames = append(workloadNames, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	sort.Strings(have)
	sort.Strings(workloadNames)
	if !slices.Equal(have, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark implements %v", workloadNames, have)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		check(m.Name)
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		want[true][m.Name] = m.Unit
	}
	for _, w := range shrunk() {
		for _, traced := range []bool{false, true} {
			r, err := execute(w, quick(t, 1), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, r.failed, r.attempted, r.report["errors"])
			}
			for name, unit := range want[traced] {
				m, ok := r.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range r.metrics {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s traced=%v: emitted metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

// The timing wrapper must not change the simulation: a wrapped run at
// one and two tick workers has the unwrapped run's digest. Run under
// -race this also checks the per-instance counters are race-free on the
// sharded tick.
func TestWrappedDigestMatchesUnwrapped(t *testing.T) {
	m := mesh8x8Sat
	cfg, err := m.netConfig(5)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, measure = 100, 300
	base, err := runNetRep(cfg, warmup, measure, measure, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		c := cfg
		c.Workers = workers
		rep, err := runNetRep(c, warmup, measure, measure, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.digest != base.digest {
			t.Errorf("wrapped run at %d workers: digest %s, unwrapped %s", workers, rep.digest, base.digest)
		}
		if rep.alloc.Calls == 0 || rep.alloc.Grants == 0 {
			t.Errorf("wrapped run at %d workers counted no allocator work: %+v", workers, rep.alloc)
		}
	}
}
