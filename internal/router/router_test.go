package router

import (
	"strings"
	"testing"

	"vix/internal/alloc"
	"vix/internal/topology"
)

// testRouter builds an isolated radix-5 router: port 0 local, ports 1-4
// links, with a lookahead stub that always reports ejection next hop.
func testRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	ports := make([]PortInfo, cfg.Ports)
	ports[0] = PortInfo{Kind: topology.Local, Dim: topology.DimLocal}
	for p := 1; p < cfg.Ports; p++ {
		dim := topology.DimX
		if p >= 3 {
			dim = topology.DimY
		}
		ports[p] = PortInfo{Kind: topology.Link, Dim: dim}
	}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	return New(7, cfg, ports, a, func(outPort, dst int) topology.Dim { return topology.DimLocal }, nil, nil)
}

func baseConfig() Config {
	return Config{
		Ports: 5, VCs: 6, VirtualInputs: 1, BufDepth: 5,
		AllocKind: alloc.KindSeparableIF, Policy: PolicyMaxFree,
	}
}

// deliver allocates flits of packet id (size flits long) straight from
// the router's arena, as the network's injection does, and pushes them
// into (port, vc) with the given route. seqs picks which flits to
// deliver, in that order; none delivers the whole packet.
func deliver(r *Router, port, vc, route int, id uint64, size int, seqs ...int) {
	if len(seqs) == 0 {
		for i := 0; i < size; i++ {
			seqs = append(seqs, i)
		}
	}
	for _, seq := range seqs {
		fid := r.flits.Alloc()
		f := r.flits.At(fid)
		f.PacketID = id
		f.Type = PacketFlitType(seq, size)
		f.Seq = seq
		f.PacketSize = size
		f.Route = route
		f.VC = -1
		r.DeliverFlit(port, vc, fid)
	}
}

func TestSingleFlitTraversal(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, 1, 1)

	ems, credits, _ := r.Tick()
	if len(ems) != 1 {
		t.Fatalf("got %d emissions, want 1", len(ems))
	}
	if ems[0].OutPort != 2 {
		t.Errorf("emitted through port %d, want 2", ems[0].OutPort)
	}
	if r.flits.At(ems[0].Flit).Hops != 1 {
		t.Errorf("hops = %d, want 1", r.flits.At(ems[0].Flit).Hops)
	}
	if len(credits) != 1 || credits[0] != (CreditMsg{Port: 1, VC: 0}) {
		t.Errorf("credits = %+v, want one for port 1 vc 0", credits)
	}
	// One downstream credit consumed at output 2.
	total := 0
	for v := 0; v < 6; v++ {
		total += r.Credits(2, v)
	}
	if total != 6*5-1 {
		t.Errorf("credits at out 2 sum to %d, want %d", total, 6*5-1)
	}
}

func TestEjectionConsumesNoCreditsAndEmitsUpstreamCredit(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 3, 2, 0, 1, 1) // route to local port 0

	ems, credits, _ := r.Tick()
	if len(ems) != 1 || ems[0].OutPort != 0 {
		t.Fatalf("ejection emission wrong: %+v", ems)
	}
	if r.flits.At(ems[0].Flit).Hops != 0 {
		t.Errorf("ejection counted a hop: %d", r.flits.At(ems[0].Flit).Hops)
	}
	if len(credits) != 1 || credits[0] != (CreditMsg{Port: 3, VC: 2}) {
		t.Errorf("credits = %+v", credits)
	}
	for v := 0; v < 6; v++ {
		if r.Credits(0, v) != 5 {
			t.Errorf("local out credits changed: vc %d = %d", v, r.Credits(0, v))
		}
	}
}

func TestLocalInputPortEmitsNoCreditMessage(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 0, 0, 2, 1, 1) // injected at local port

	_, credits, _ := r.Tick()
	if len(credits) != 0 {
		t.Fatalf("local input produced credit messages: %+v", credits)
	}
}

func TestMultiFlitWormhole(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, 1, 4)

	var sent []*Flit
	for cycle := 0; cycle < 4; cycle++ {
		ems, _, _ := r.Tick()
		if len(ems) != 1 {
			t.Fatalf("cycle %d: %d emissions, want 1", cycle, len(ems))
		}
		sent = append(sent, r.flits.At(ems[0].Flit))
	}
	for i, f := range sent {
		if f.Seq != i {
			t.Errorf("flit %d out of order: seq %d", i, f.Seq)
		}
		if f.VC != sent[0].VC {
			t.Errorf("flit %d switched VC mid-packet: %d vs %d", i, f.VC, sent[0].VC)
		}
	}
	if ems, _, _ := r.Tick(); len(ems) != 0 {
		t.Fatalf("empty router still emitting: %+v", ems)
	}
}

// The output VC is held until the tail departs: a second packet wanting
// the same output port must use a different downstream VC.
func TestOutputVCHeldUntilTail(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, 1, 3)
	deliver(r, 3, 0, 2, 2, 3)

	vcs := map[uint64]int{}
	for cycle := 0; cycle < 8; cycle++ {
		ems, _, _ := r.Tick()
		for _, e := range ems {
			f := r.flits.At(e.Flit)
			if prev, ok := vcs[f.PacketID]; ok && prev != f.VC {
				t.Fatalf("packet %d changed downstream VC", f.PacketID)
			}
			vcs[f.PacketID] = f.VC
		}
	}
	if len(vcs) != 2 {
		t.Fatalf("expected both packets to progress, saw %v", vcs)
	}
	if vcs[1] == vcs[2] {
		t.Fatal("two concurrent packets shared one downstream VC")
	}
}

// With zero credits a flit must not be granted; it resumes after a credit
// returns.
func TestCreditBlocking(t *testing.T) {
	cfg := baseConfig()
	cfg.BufDepth = 1
	cfg.VCs = 1
	cfg.VirtualInputs = 1
	r := testRouter(t, cfg)

	deliver(r, 1, 0, 2, 1, 2, 0)

	ems, _, _ := r.Tick()
	if len(ems) != 1 {
		t.Fatalf("first flit blocked unexpectedly")
	}
	deliver(r, 1, 0, 2, 1, 2, 1)
	// The single downstream credit is now consumed.
	if r.Credits(2, 0) != 0 {
		t.Fatalf("credit accounting wrong: %d", r.Credits(2, 0))
	}
	if ems, _, _ := r.Tick(); len(ems) != 0 {
		t.Fatalf("flit advanced without credit: %+v", ems)
	}
	r.DeliverCredit(2, 0)
	if ems, _, _ := r.Tick(); len(ems) != 1 {
		t.Fatal("flit did not advance after credit return")
	}
}

func TestBufferOverflowPanics(t *testing.T) {
	cfg := baseConfig()
	cfg.BufDepth = 2
	r := testRouter(t, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("buffer overflow did not panic")
		}
	}()
	deliver(r, 1, 0, 2, 1, 3) // 3 flits into depth-2 buffer
}

func TestInvalidRoutePanics(t *testing.T) {
	r := testRouter(t, baseConfig())
	id := r.flits.Alloc()
	r.flits.At(id).Route = 99
	defer func() {
		if recover() == nil {
			t.Fatal("invalid route did not panic")
		}
	}()
	r.DeliverFlit(1, 0, id)
}

func TestCreditOverflowPanics(t *testing.T) {
	r := testRouter(t, baseConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("credit overflow did not panic")
		}
	}()
	r.DeliverCredit(1, 0) // already at BufDepth
}

// Baseline (k=1) can move at most one flit per input port per cycle even
// with traffic in many VCs; VIX (k=2) moves two when they sit in
// different sub-groups.
func TestVIXDatapathParallelism(t *testing.T) {
	base := baseConfig()
	r := testRouter(t, base)
	deliver(r, 1, 0, 2, 1, 1)
	deliver(r, 1, 3, 4, 2, 1)
	ems, _, _ := r.Tick()
	if len(ems) != 1 {
		t.Fatalf("baseline moved %d flits from one port, want 1", len(ems))
	}

	vixCfg := baseConfig()
	vixCfg.VirtualInputs = 2
	vixCfg.Policy = PolicyBalanced
	r2 := testRouter(t, vixCfg)
	deliver(r2, 1, 0, 2, 1, 1) // sub-group 0
	deliver(r2, 1, 3, 4, 2, 1) // sub-group 1
	ems2, _, _ := r2.Tick()
	if len(ems2) != 2 {
		t.Fatalf("VIX moved %d flits from one port, want 2", len(ems2))
	}
}

// Body flits must never be presented for VC allocation: the head holds
// the output VC for the whole packet.
func TestBodyFlitsInheritOutputVC(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 2, 1, 3, 1, 5)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		ems, _, _ := r.Tick()
		if len(ems) != 1 {
			t.Fatalf("cycle %d: emissions %d", i, len(ems))
		}
		seen[r.flits.At(ems[0].Flit).VC] = true
	}
	if len(seen) != 1 {
		t.Fatalf("packet used %d downstream VCs, want 1", len(seen))
	}
}

func TestOccupancyAndBufferSpace(t *testing.T) {
	r := testRouter(t, baseConfig())
	if r.Occupancy() != 0 {
		t.Fatalf("fresh router occupancy %d", r.Occupancy())
	}
	deliver(r, 1, 2, 3, 1, 2)
	if r.Occupancy() != 2 {
		t.Fatalf("occupancy %d, want 2", r.Occupancy())
	}
	if got := r.BufferSpace(1, 2); got != 3 {
		t.Fatalf("BufferSpace = %d, want 3", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.BufDepth = 0
	if bad.Validate() == nil {
		t.Error("zero BufDepth accepted")
	}
	bad = good
	bad.Policy = ""
	if bad.Validate() == nil {
		t.Error("empty policy accepted")
	}
	bad = good
	bad.VirtualInputs = 9
	if bad.Validate() == nil {
		t.Error("VirtualInputs > VCs accepted")
	}
}

// A single-flit packet is one HeadTail; a longer one is Head, Body...,
// Tail, and its flits keep their sequence number and packet size as
// they cross a router.
func TestNewPacketShapes(t *testing.T) {
	shapes := []struct {
		size int
		want []FlitType
	}{
		{1, []FlitType{HeadTail}},
		{2, []FlitType{Head, Tail}},
		{4, []FlitType{Head, Body, Body, Tail}},
	}
	for _, sh := range shapes {
		for seq, want := range sh.want {
			if got := PacketFlitType(seq, sh.size); got != want {
				t.Errorf("PacketFlitType(%d, %d) = %v, want %v", seq, sh.size, got, want)
			}
		}
	}

	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, 6, 4)
	wantTypes := []FlitType{Head, Body, Body, Tail}
	for i := range wantTypes {
		ems, _, _ := r.Tick()
		if len(ems) != 1 {
			t.Fatalf("cycle %d: %d emissions, want 1", i, len(ems))
		}
		f := r.flits.At(ems[0].Flit)
		if f.Type != wantTypes[i] {
			t.Errorf("flit %d type %v, want %v", i, f.Type, wantTypes[i])
		}
		if f.PacketID != 6 || f.Seq != i || f.PacketSize != 4 {
			t.Errorf("flit %d metadata wrong: %+v", i, *f)
		}
	}
}

func TestFlitTypePredicates(t *testing.T) {
	cases := []struct {
		ft         FlitType
		head, tail bool
		str        string
	}{
		{Head, true, false, "head"},
		{Body, false, false, "body"},
		{Tail, false, true, "tail"},
		{HeadTail, true, true, "headtail"},
	}
	for _, c := range cases {
		if c.ft.IsHead() != c.head || c.ft.IsTail() != c.tail {
			t.Errorf("%v predicates wrong", c.ft)
		}
		if c.ft.String() != c.str {
			t.Errorf("%v String() = %q", c.ft, c.ft.String())
		}
	}
}

// Non-speculative switch allocation delays a head flit by one cycle at
// each VA: the flit wins VA in one Tick and SA only in the next.
func TestNonSpeculativeDelaysHeadOneCycle(t *testing.T) {
	cfg := baseConfig()
	cfg.NonSpeculative = true
	r := testRouter(t, cfg)
	deliver(r, 1, 0, 2, 1, 1)

	ems, _, _ := r.Tick()
	if len(ems) != 0 {
		t.Fatalf("non-speculative head traversed in its VA cycle")
	}
	ems, _, _ = r.Tick()
	if len(ems) != 1 {
		t.Fatalf("head did not traverse in the cycle after VA: %+v", ems)
	}
}

// Speculative (default) allocation lets the head do VA and SA in the
// same cycle — the Figure 6b pipeline.
func TestSpeculativeHeadSameCycle(t *testing.T) {
	r := testRouter(t, baseConfig())
	deliver(r, 1, 0, 2, 1, 1)
	if ems, _, _ := r.Tick(); len(ems) != 1 {
		t.Fatalf("speculative head failed to traverse in VA cycle: %+v", ems)
	}
}

// Body flits are never delayed by the non-speculative rule: only the VA
// cycle itself is affected.
func TestNonSpeculativeBodyFlitsUnaffected(t *testing.T) {
	cfg := baseConfig()
	cfg.NonSpeculative = true
	r := testRouter(t, cfg)
	deliver(r, 1, 0, 2, 1, 4)

	var sent int
	for cycle := 0; cycle < 6; cycle++ {
		ems, _, _ := r.Tick()
		sent += len(ems)
	}
	// Cycle 0: VA only. Cycles 1-4: one flit each.
	if sent != 4 {
		t.Fatalf("sent %d flits in 6 cycles, want 4", sent)
	}
}

// TestWideRouterMultiWordMasks drives a radix-70 router, whose port mask
// spans two words and input-VC masks three, through grants on either side
// of the word boundaries: credits are consumed only at Link outputs,
// credit messages come only from Link inputs, and Occupancy's mask
// recount holds before and after the tick.
func TestWideRouterMultiWordMasks(t *testing.T) {
	cfg := Config{
		Ports: 70, VCs: 2, VirtualInputs: 1, BufDepth: 2,
		AllocKind: alloc.KindSeparableIF, Policy: PolicyMaxFree,
	}
	ports := make([]PortInfo, cfg.Ports)
	for p := range ports {
		ports[p] = PortInfo{Kind: topology.Link, Dim: topology.DimX}
	}
	ports[0] = PortInfo{Kind: topology.Local, Dim: topology.DimLocal}
	ports[67] = PortInfo{Kind: topology.Local, Dim: topology.DimLocal}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	r := New(0, cfg, ports, a, func(outPort, dst int) topology.Dim { return topology.DimX }, nil, nil)

	// (in port, vc) -> out port, one single-flit packet each.
	type hop struct{ in, vc, out int }
	hops := []hop{{66, 1, 69}, {69, 0, 67}, {0, 0, 65}, {31, 1, 63}, {64, 0, 0}}
	for i, h := range hops {
		deliver(r, h.in, h.vc, h.out, uint64(i+1), 1)
	}
	r.Occupancy()
	ems, credits, quiesced := r.Tick()
	r.Occupancy()
	if len(ems) != len(hops) || !quiesced {
		t.Fatalf("got %d emissions (quiesced %v), want %d", len(ems), quiesced, len(hops))
	}
	wantCredits := 0
	for _, h := range hops {
		if ports[h.in].Kind == topology.Link {
			wantCredits++
		}
		spent := 0
		for v := 0; v < cfg.VCs; v++ {
			spent += cfg.BufDepth - r.Credits(h.out, v)
		}
		want := 0
		if ports[h.out].Kind == topology.Link {
			want = 1
		}
		if spent != want {
			t.Errorf("out port %d: %d downstream credits consumed, want %d", h.out, spent, want)
		}
	}
	if len(credits) != wantCredits {
		t.Errorf("got %d credit messages %+v, want %d", len(credits), credits, wantCredits)
	}
	for _, c := range credits {
		if ports[c.Port].Kind != topology.Link {
			t.Errorf("credit message from non-link input port %d", c.Port)
		}
	}
}

// TestArenaGeometryMismatchPanics: the arena's shared sub-group table is
// derived from VirtualInputs and Partition, so a router whose crossbar
// differs from its arena's must be refused, as a differing VC count or
// buffer depth is.
func TestArenaGeometryMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name          string
		arena, router func(*Config)
	}{
		{"VCs", nil, func(c *Config) { c.VCs = 4 }},
		{"BufDepth", nil, func(c *Config) { c.BufDepth = 3 }},
		{"VirtualInputs", nil, func(c *Config) { c.VirtualInputs = 2 }},
		{"Partition", func(c *Config) { c.VirtualInputs = 2 }, func(c *Config) {
			c.VirtualInputs, c.Partition = 2, alloc.Interleaved
		}},
	} {
		arenaCfg, cfg := baseConfig(), baseConfig()
		if tc.arena != nil {
			tc.arena(&arenaCfg)
		}
		tc.router(&cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "arena geometry") {
					t.Errorf("%s: want an arena geometry panic, got %q", tc.name, msg)
				}
			}()
			New(0, cfg, make([]PortInfo, cfg.Ports), alloc.MustNew(cfg.AllocKind, cfg.Alloc()), nil, nil,
				NewArena(1, arenaCfg, NewFlitArena(0, false)))
		}()
	}
}
