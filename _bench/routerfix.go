package main

import (
	"fmt"
	"time"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/topology"
)

// The isolated-router fixture: one radix-5 VIX router (a mesh router's
// local port plus four links) whose every input VC is kept backlogged,
// with each credit returned the default credit delay after its flit
// leaves. It is a layer probe, not a workload: it times Router.Tick with
// no network around it.
const (
	fixturePorts       = 5
	fixturePacketSize  = 4
	fixtureCreditDelay = 2 // network.DefaultCreditDelay
	fixtureWarmTicks   = 1000
	fixtureTicks       = 40000
)

// fixtureResult is the fixture's per-tick averages over the timed ticks.
type fixtureResult struct {
	tickNs, selfNs, grantsPerTick float64
}

// runRouterFixture builds the router from exported APIs only and times
// fixtureTicks ticks after fixtureWarmTicks untimed ones.
func runRouterFixture(seed uint64) (fixtureResult, error) {
	cfg := router.Config{
		Ports: fixturePorts, VCs: 6, VirtualInputs: 2, BufDepth: 5,
		AllocKind: timedKind(alloc.KindSeparableIF), Policy: router.PolicyBalanced,
	}
	ports := []router.PortInfo{
		{Kind: topology.Local, Dim: topology.DimLocal},
		{Kind: topology.Link, Dim: topology.DimX}, {Kind: topology.Link, Dim: topology.DimX},
		{Kind: topology.Link, Dim: topology.DimY}, {Kind: topology.Link, Dim: topology.DimY},
	}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		return fixtureResult{}, err
	}
	wrappers := takeTimed()
	if len(wrappers) != 1 {
		return fixtureResult{}, fmt.Errorf("router fixture: expected one timed allocator, got %d", len(wrappers))
	}
	timed := wrappers[0]
	flits := router.NewFlitArena(0, false)
	nextDim := func(outPort, dst int) topology.Dim { return ports[(outPort+dst)%fixturePorts].Dim }
	rt := router.New(0, cfg, ports, a, nextDim, nil, router.NewArena(1, cfg, flits))

	rng := sim.NewRNG(sim.DeriveSeed(seed, "router-fixture"))
	type stream struct{ seq, route, dst int }
	streams := make([]stream, cfg.Ports*cfg.VCs)
	var packetID uint64
	refill := func(cycle int64) {
		for port := 0; port < cfg.Ports; port++ {
			for vc := 0; vc < cfg.VCs; vc++ {
				s := &streams[port*cfg.VCs+vc]
				for rt.BufferSpace(port, vc) > 0 {
					if s.seq == 0 {
						packetID++
						s.route = (port + 1 + rng.Intn(cfg.Ports-1)) % cfg.Ports // never a U-turn
						s.dst = rng.Intn(64)
					}
					id := flits.Alloc()
					*flits.At(id) = router.Flit{
						PacketID: packetID, Type: router.PacketFlitType(s.seq, fixturePacketSize),
						Dst: s.dst, Seq: s.seq, PacketSize: fixturePacketSize, Route: s.route,
						CreateCycle: cycle, InjectCycle: cycle,
					}
					rt.DeliverFlit(port, vc, id)
					s.seq = (s.seq + 1) % fixturePacketSize
				}
			}
		}
	}
	type credit struct {
		at           int64
		outPort, ovc int
	}
	var pending []credit
	var tickNs, allocNs, grants int64
	for cycle := int64(0); cycle < fixtureWarmTicks+fixtureTicks; cycle++ {
		keep := pending[:0]
		for _, c := range pending {
			if c.at == cycle {
				rt.DeliverCredit(c.outPort, c.ovc)
			} else {
				keep = append(keep, c)
			}
		}
		pending = keep
		refill(cycle)

		a0 := timed.counts.Nanos
		start := time.Now()
		ems, _, _ := rt.Tick()
		d := time.Since(start)
		if cycle >= fixtureWarmTicks {
			tickNs += int64(d)
			allocNs += timed.counts.Nanos - a0
			grants += int64(len(ems))
		}
		for _, e := range ems {
			if ports[e.OutPort].Kind == topology.Link {
				pending = append(pending, credit{at: cycle + fixtureCreditDelay, outPort: e.OutPort, ovc: flits.At(e.Flit).VC})
			}
			flits.Free(e.Flit)
		}
	}
	n := float64(fixtureTicks)
	return fixtureResult{
		tickNs:        float64(tickNs) / n,
		selfNs:        float64(tickNs-allocNs) / n,
		grantsPerTick: float64(grants) / n,
	}, nil
}
