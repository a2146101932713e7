package alloc_test

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/sim"
)

// benchAllocate drives one allocator kind with a pre-generated rotation of
// saturated request sets. Every Allocator keeps its working buffers as
// construction-time scratch, so a warmed-up allocator must report
// 0 allocs/op here; the allocation counter is the regression gate. The
// geometry is radix 5 with 6 VCs and k virtual inputs per port.
func benchAllocate(b *testing.B, kind alloc.Kind, k int) {
	cfg := alloc.Config{Ports: 5, VCs: 6, VirtualInputs: k}
	a, err := alloc.New(kind, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	sets := make([]alloc.RequestSet, 64)
	for i := range sets {
		sets[i] = randomRequestSet(cfg, rng)
	}
	for i := range sets {
		a.Allocate(&sets[i]) // warm the scratch to its high-water mark
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(&sets[i%len(sets)])
	}
}

func BenchmarkAllocateIF(b *testing.B)        { benchAllocate(b, alloc.KindSeparableIF, 2) }
func BenchmarkAllocateIFk1(b *testing.B)      { benchAllocate(b, alloc.KindSeparableIF, 1) }
func BenchmarkAllocateWavefront(b *testing.B) { benchAllocate(b, alloc.KindWavefront, 2) }
func BenchmarkAllocateAP(b *testing.B)        { benchAllocate(b, alloc.KindAugmentingPath, 2) }
func BenchmarkAllocatePC(b *testing.B)        { benchAllocate(b, alloc.KindPacketChaining, 2) }
func BenchmarkAllocateIdeal(b *testing.B)     { benchAllocate(b, alloc.KindIdeal, 6) }
func BenchmarkAllocateISLIP(b *testing.B)     { benchAllocate(b, alloc.KindISLIP, 2) }
func BenchmarkAllocateSparoflo(b *testing.B)  { benchAllocate(b, alloc.KindSparoflo, 1) }
func BenchmarkAllocateIFAge(b *testing.B)     { benchAllocate(b, alloc.KindSeparableAge, 2) }

// TestAllocateZeroAllocsSteadyState asserts the scratch contract at the
// allocator layer: after one warming call, Allocate performs no heap
// allocations for any registered kind.
func TestAllocateZeroAllocsSteadyState(t *testing.T) {
	for _, kind := range alloc.Kinds() {
		cfg := alloc.Config{Ports: 5, VCs: 6, VirtualInputs: 2}
		switch kind {
		case alloc.KindIdeal:
			cfg.VirtualInputs = cfg.VCs
		case alloc.KindSparoflo:
			cfg.VirtualInputs = 1
		}
		a, err := alloc.New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(7)
		sets := make([]alloc.RequestSet, 16)
		for i := range sets {
			sets[i] = randomRequestSet(cfg, rng)
		}
		for i := range sets {
			a.Allocate(&sets[i])
		}
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			a.Allocate(&sets[i%len(sets)])
			i++
		})
		if avg != 0 {
			t.Errorf("%q: Allocate allocates %v times per call in steady state; want 0", kind, avg)
		}
	}
}
