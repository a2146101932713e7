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

// BenchmarkRouterTick times one backlogged router cycle: the fixture's
// credit landing and buffer top-up plus Router.Tick (VC allocation,
// request build, switch allocation, traversal). A warmed router must
// report 0 allocs/op.
func BenchmarkRouterTick(b *testing.B) {
	f := newBacklogFixture(b)
	for i := 0; i < 1000; i++ {
		f.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.step()
	}
}

// TestRouterTickZeroAllocs is BenchmarkRouterTick's allocation gate under
// plain go test: once warm, a backlogged router cycle allocates nothing.
func TestRouterTickZeroAllocs(t *testing.T) {
	f := newBacklogFixture(t)
	for i := 0; i < 1000; i++ {
		f.step()
	}
	if avg := testing.AllocsPerRun(500, f.step); avg != 0 {
		t.Errorf("backlogged router cycle allocates %v times; want 0", avg)
	}
}
