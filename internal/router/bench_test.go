package router_test

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/topology"
)

// The backlogged-router fixture: one radix-5 VIX router (a mesh router's
// local port plus four links, 6 VCs, k = 2) whose every input VC is kept
// full, with each credit returned fixtureCreditDelay ticks after its
// flit leaves. It is built from exported APIs only, so it measures the
// router exactly as the network drives it, with no network around it.
const (
	fixturePackets     = 4 // flits per packet
	fixtureCreditDelay = 2 // the network's default credit delay
)

type creditReturn struct{ outPort, vc int }

type backlogFixture struct {
	rt    *router.Router
	flits *router.FlitArena
	ports []router.PortInfo
	rng   *sim.RNG

	// Per input VC: the next flit's position in its packet and the
	// packet's route and destination.
	seq, route, dst []int
	packetID        uint64

	cycle int
	// due is a ring of credits by the tick they return on; its backing
	// arrays reach steady state, so a warmed fixture allocates nothing.
	due [fixtureCreditDelay + 1][]creditReturn
}

func newBacklogFixture(tb testing.TB) *backlogFixture {
	tb.Helper()
	cfg := router.Config{
		Ports: 5, VCs: 6, VirtualInputs: 2, BufDepth: 5,
		AllocKind: alloc.KindSeparableIF, Policy: router.PolicyBalanced,
	}
	ports := []router.PortInfo{
		{Kind: topology.Local, Dim: topology.DimLocal},
		{Kind: topology.Link, Dim: topology.DimX}, {Kind: topology.Link, Dim: topology.DimX},
		{Kind: topology.Link, Dim: topology.DimY}, {Kind: topology.Link, Dim: topology.DimY},
	}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		tb.Fatal(err)
	}
	flits := router.NewFlitArena(0, false)
	nextDim := func(outPort, dst int) topology.Dim { return ports[(outPort+dst)%len(ports)].Dim }
	pv := cfg.Ports * cfg.VCs
	return &backlogFixture{
		rt:    router.New(0, cfg, ports, a, nextDim, nil, router.NewArena(1, cfg, flits)),
		flits: flits,
		ports: ports,
		rng:   sim.NewRNG(1),
		seq:   make([]int, pv),
		route: make([]int, pv),
		dst:   make([]int, pv),
	}
}

// step runs one cycle: it lands the credits due, tops every input VC up
// to full, ticks the router, schedules the freed credits and retires the
// departing flits.
func (f *backlogFixture) step() {
	cfg := f.rt.Config()
	slot := f.cycle % len(f.due)
	for _, c := range f.due[slot] {
		f.rt.DeliverCredit(c.outPort, c.vc)
	}
	f.due[slot] = f.due[slot][:0]
	for port := 0; port < cfg.Ports; port++ {
		for vc := 0; vc < cfg.VCs; vc++ {
			ivc := port*cfg.VCs + vc
			for f.rt.BufferSpace(port, vc) > 0 {
				if f.seq[ivc] == 0 {
					f.packetID++
					f.route[ivc] = (port + 1 + f.rng.Intn(cfg.Ports-1)) % cfg.Ports // never a U-turn
					f.dst[ivc] = f.rng.Intn(64)
				}
				id := f.flits.Alloc()
				*f.flits.At(id) = router.Flit{
					PacketID: f.packetID, Type: router.PacketFlitType(f.seq[ivc], fixturePackets),
					Dst: f.dst[ivc], Seq: f.seq[ivc], PacketSize: fixturePackets, Route: f.route[ivc],
				}
				f.rt.DeliverFlit(port, vc, id)
				f.seq[ivc] = (f.seq[ivc] + 1) % fixturePackets
			}
		}
	}
	ems, _, _ := f.rt.Tick()
	back := (f.cycle + fixtureCreditDelay) % len(f.due)
	for _, e := range ems {
		if f.ports[e.OutPort].Kind == topology.Link {
			f.due[back] = append(f.due[back], creditReturn{e.OutPort, f.flits.At(e.Flit).VC})
		}
		f.flits.Free(e.Flit)
	}
	f.cycle++
}

// warmBacklogFixture returns a fixture stepped into its steady state.
func warmBacklogFixture(tb testing.TB) *backlogFixture {
	f := newBacklogFixture(tb)
	for i := 0; i < 1000; i++ {
		f.step()
	}
	return f
}

// Phase probes for the layer microbenchmarks. Each runs one tick phase
// on a warmed backlogged router frozen between cycles, so repeated runs
// see the same steady state:
//
//   - va: allocateVCs. The first run may grant a VC that freed since the
//     last tick; from then on every waiting head finds all of its
//     downstream VCs busy, the outcome of most VA attempts at saturation.
//   - requests: buildRequests over the router's buffered input VCs. It
//     only rebuilds the request set and ages the waits of the VCs it
//     lists.
var routerPhases = []struct {
	name string
	run  func(*router.Router)
}{
	{"va", func(rt *router.Router) { rt.AllocateVCs() }},
	{"requests", func(rt *router.Router) { rt.BuildRequests() }},
}

// BenchmarkRouterTick times one backlogged router cycle ("cycle": the
// fixture's credit landing and buffer top-up plus Router.Tick — VC
// allocation, request build, switch allocation, traversal) and, on a
// frozen backlogged router, the VC allocation ("va") and request build
// ("requests") phases alone. A warmed router must report 0 allocs/op.
func BenchmarkRouterTick(b *testing.B) {
	b.Run("cycle", func(b *testing.B) {
		f := warmBacklogFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.step()
		}
	})
	for _, ph := range routerPhases {
		b.Run(ph.name, func(b *testing.B) {
			f := warmBacklogFixture(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ph.run(f.rt)
			}
		})
	}
}

// TestRouterTickZeroAllocs is BenchmarkRouterTick's allocation gate under
// plain go test: once warm, a backlogged router cycle allocates nothing.
func TestRouterTickZeroAllocs(t *testing.T) {
	f := warmBacklogFixture(t)
	if avg := testing.AllocsPerRun(500, f.step); avg != 0 {
		t.Errorf("backlogged router cycle allocates %v times; want 0", avg)
	}
}

// TestRouterPhasesZeroAllocs is the allocation gate of the per-phase
// sub-benchmarks: neither VC allocation nor request build allocates on a
// warmed backlogged router.
func TestRouterPhasesZeroAllocs(t *testing.T) {
	for _, ph := range routerPhases {
		f := warmBacklogFixture(t)
		if avg := testing.AllocsPerRun(500, func() { ph.run(f.rt) }); avg != 0 {
			t.Errorf("%s phase allocates %v times per run; want 0", ph.name, avg)
		}
	}
}
