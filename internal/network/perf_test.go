package network

import (
	"fmt"
	"runtime"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/topology"
)

// saturatedMesh builds the workload every Figure 8 sweep spends its
// cycles in: an 8x8 VIX mesh under saturated uniform-random load.
func saturatedMesh(tb testing.TB) *Network {
	return saturatedMeshWorkers(tb, 1)
}

// saturatedMeshWorkers is saturatedMesh with a parallel-tick worker count.
func saturatedMeshWorkers(tb testing.TB, workers int) *Network {
	return perfMesh(tb, workers, false, 0)
}

// perfMesh builds the perf-suite network: an 8x8 VIX mesh, saturated when
// rate is 0 (MaxInjection) or at the given Bernoulli rate otherwise, with
// the requested worker count and activity-gate setting.
func perfMesh(tb testing.TB, workers int, disableGate bool, rate float64) *Network {
	tb.Helper()
	topo := topology.NewMesh(8, 8)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.InjectionRate = rate
	cfg.MaxInjection = rate == 0
	cfg.Seed = 1
	cfg.Workers = workers
	cfg.DisableActivityGate = disableGate
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestSteadyStateZeroAllocs pins the headline guarantee of the memory
// discipline work: once the scratch buffers and the flit pool have grown
// to their high-water marks, Network.Step performs zero heap allocations
// per cycle — on the serial walk and on the parallel tick, with the
// activity gate on and off (the worklist rebuild reuses its backing
// array, worklist slots store Tick's slice headers, and the
// pool reuses parked workers, so no phase allocates). The run is fully
// deterministic (fixed seed), so this either always passes or always
// fails for a given code state.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, disableGate := range []bool{false, true} {
			name := fmt.Sprintf("workers%d_gate_on", workers)
			if disableGate {
				name = fmt.Sprintf("workers%d_gate_off", workers)
			}
			t.Run(name, func(t *testing.T) {
				n := perfMesh(t, workers, disableGate, 0)
				defer n.Close()
				n.Run(8000)
				n.Collector().Reset()
				avg := testing.AllocsPerRun(200, func() { n.Step() })
				if avg != 0 {
					t.Fatalf("Network.Step allocates %v times per cycle in steady state; want 0", avg)
				}
				// Malloc count alone would miss a regression that trades
				// few-but-huge allocations (slab churn) for many small
				// ones; pin the byte total to exactly zero as well.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 200; i++ {
					n.Step()
				}
				runtime.ReadMemStats(&after)
				if d := after.TotalAlloc - before.TotalAlloc; d != 0 {
					t.Fatalf("Network.Step allocated %d bytes over 200 steady-state cycles; want 0", d)
				}
			})
		}
	}
}

// TestSteadyStateZeroAllocsLowLoad repeats the zero-allocation pin at low
// load, where the gated tick runs mostly empty worklists — the regime the
// gate exists for must not pay for its speed with per-cycle garbage.
func TestSteadyStateZeroAllocsLowLoad(t *testing.T) {
	n := perfMesh(t, 1, false, 0.01)
	defer n.Close()
	n.Run(8000)
	n.Collector().Reset()
	avg := testing.AllocsPerRun(200, func() { n.Step() })
	if avg != 0 {
		t.Fatalf("gated low-load Network.Step allocates %v times per cycle in steady state; want 0", avg)
	}
}

// BenchmarkNetworkStep measures the serial cycle loop's cost under the
// saturated VIX workload, gate on and off; the allocation counter must
// stay at 0. At saturation every router is active every cycle, so this
// doubles as the gate's worst-case overhead measurement.
func BenchmarkNetworkStep(b *testing.B) {
	for _, disableGate := range []bool{false, true} {
		name := "gate_on"
		if disableGate {
			name = "gate_off"
		}
		b.Run(name, func(b *testing.B) {
			n := perfMesh(b, 1, disableGate, 0)
			defer n.Close()
			n.Run(3000)
			n.Collector().Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkNetworkStepLowLoad measures the regime the activity gate
// targets: 8x8 at 1% injection, where most routers are idle most cycles.
// The gate_on/gate_off ratio here is the headline speedup.
func BenchmarkNetworkStepLowLoad(b *testing.B) {
	for _, disableGate := range []bool{false, true} {
		name := "gate_on"
		if disableGate {
			name = "gate_off"
		}
		b.Run(name, func(b *testing.B) {
			n := perfMesh(b, 1, disableGate, 0.01)
			defer n.Close()
			n.Run(3000)
			n.Collector().Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkNetworkStepParallel measures the parallel tick with the gate
// on and off (every router pinned active) at a spread of worker counts
// on the saturated workload; compare against BenchmarkNetworkStep for
// parallel efficiency. Allocation counters must stay at 0 here too.
func BenchmarkNetworkStepParallel(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		for _, disableGate := range []bool{false, true} {
			name := fmt.Sprintf("workers%d_gate_on", workers)
			if disableGate {
				name = fmt.Sprintf("workers%d_gate_off", workers)
			}
			b.Run(name, func(b *testing.B) {
				n := perfMesh(b, workers, disableGate, 0)
				defer n.Close()
				n.Run(3000)
				n.Collector().Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
			})
		}
	}
}
