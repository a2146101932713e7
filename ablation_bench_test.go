package vix

// Ablation benchmarks for the design choices DESIGN.md calls out, plus a
// whole-network step benchmark (the simulator's hot loop). The allocator
// microbenchmarks live in internal/alloc/bench_test.go.

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/experiments"
	"vix/internal/router"
	"vix/internal/topology"
)

// BenchmarkAblationPolicies measures the Section 2.3 VC-assignment
// policies under uniform and adversarial traffic on a saturated VIX mesh.
func BenchmarkAblationPolicies(b *testing.B) {
	p := benchParams()
	p.Warmup, p.Measure = 500, 1500
	var rows []experiments.PolicyAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblatePolicies(p, []string{"uniform", "bitcomp"}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logRows(b, func() {
		for _, r := range rows {
			b.Logf("%-8s %-9s %.4f flits/cycle/node", r.Pattern, r.Policy, r.Throughput)
		}
	})
	var blind, aware float64
	for _, r := range rows {
		if r.Pattern == "bitcomp" {
			switch r.Policy {
			case router.PolicyMaxFree:
				blind = r.Throughput
			case router.PolicyBalanced:
				aware = r.Throughput
			}
		}
	}
	b.ReportMetric(aware/blind, "balancedVsMaxfree@bitcomp")
}

// BenchmarkAblationPartition compares contiguous and interleaved VC
// sub-group partitions.
func BenchmarkAblationPartition(b *testing.B) {
	p := benchParams()
	p.Warmup, p.Measure = 500, 1500
	var rows []experiments.PartitionAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblatePartition(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logRows(b, func() {
		for _, r := range rows {
			name := "contiguous"
			if r.Partition == alloc.Interleaved {
				name = "interleaved"
			}
			b.Logf("%-10s %-11s %.4f flits/cycle/node", r.Topology, name, r.Throughput)
		}
	})
}

// BenchmarkAblationPipeline compares the 3-stage (Figure 6b) and 5-stage
// (Figure 6a) pipelines.
func BenchmarkAblationPipeline(b *testing.B) {
	p := benchParams()
	p.Warmup, p.Measure = 500, 1500
	var rows []experiments.PipelineAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblatePipeline(p, 0.05); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logRows(b, func() {
		for _, r := range rows {
			b.Logf("%-4s hop=%d latency %.2f  saturation %.4f", r.Scheme, r.HopDelay, r.AvgLatency, r.Throughput)
		}
	})
}

// BenchmarkAblationVirtualInputSweep sweeps k on the mesh — the
// fine-grained version of Figure 12 locating the diminishing returns the
// paper's "two virtual inputs is close to ideal" claim rests on.
func BenchmarkAblationVirtualInputSweep(b *testing.B) {
	p := benchParams()
	p.Warmup, p.Measure = 500, 1500
	var rows []experiments.KSweepRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblateVirtualInputs(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logRows(b, func() {
		for _, r := range rows {
			b.Logf("k=%d %.4f flits/cycle/node", r.K, r.Throughput)
		}
	})
	gain2 := rows[1].Throughput - rows[0].Throughput
	gainIdeal := rows[len(rows)-1].Throughput - rows[0].Throughput
	b.ReportMetric(gain2/gainIdeal, "k2shareOfIdealGain")
}

// BenchmarkAblationAllocators races the extended allocator set,
// including iSLIP and SPAROFLO.
func BenchmarkAblationAllocators(b *testing.B) {
	p := benchParams()
	p.Warmup, p.Measure = 500, 1500
	var rows []experiments.AllocAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblateAllocators(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logRows(b, func() {
		for _, r := range rows {
			b.Logf("%-9s %.4f flits/cycle/node", r.Scheme, r.Throughput)
		}
	})
}

// --- microbenchmarks ---

// BenchmarkNetworkStep measures whole-network simulation speed: one
// cycle of a saturated 64-node VIX mesh (the simulator's hot loop).
func BenchmarkNetworkStep(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	n, err := NewNetwork(NetworkConfig{
		Topology: topo,
		Router: RouterConfig{
			Ports: topo.Radix, VCs: 6, VirtualInputs: 2, BufDepth: 5,
			AllocKind: AllocSeparableIF, Policy: PolicyBalanced,
		},
		Pattern:      NewUniformTraffic(topo.NumNodes),
		MaxInjection: true,
		PacketSize:   4,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n.Run(1000) // reach steady state before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	s := n.Collector().Snapshot()
	if s.FlitsEjected == 0 {
		b.Fatal("no traffic during benchmark")
	}
}
