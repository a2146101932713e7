package router

import (
	"fmt"
	"math/bits"
	"strings"

	"vix/internal/alloc"
	"vix/internal/topology"
)

// Config holds the per-router microarchitecture parameters of the paper's
// methodology (Section 3): buffering of v VCs per port with a fixed
// buffer depth, a crossbar with k virtual inputs per port, a switch
// allocation scheme, and an output-VC assignment policy.
type Config struct {
	Ports         int             // router radix P
	VCs           int             // virtual channels per input port
	VirtualInputs int             // crossbar virtual inputs per port (1 = baseline, 2 = VIX)
	BufDepth      int             // flit buffers per VC
	AllocKind     alloc.Kind      // switch allocation scheme
	Policy        PolicyKind      // output-VC assignment policy
	Partition     alloc.Partition // VC-to-sub-group mapping (default contiguous)

	// NonSpeculative disables speculative switch allocation: a head flit
	// that wins VC allocation this cycle may only compete in switch
	// allocation from the next cycle. The default (false) models the
	// paper's optimised pipeline (Figure 6b, citing Peh & Dally), where
	// heads speculatively bid for the switch in parallel with VA.
	NonSpeculative bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BufDepth <= 0 {
		return fmt.Errorf("router: BufDepth must be positive, got %d", c.BufDepth)
	}
	if c.Policy == "" {
		return fmt.Errorf("router: Policy must be set")
	}
	return c.Alloc().Validate()
}

// Alloc returns the allocator geometry implied by the config.
func (c Config) Alloc() alloc.Config {
	return alloc.Config{Ports: c.Ports, VCs: c.VCs, VirtualInputs: c.VirtualInputs, Partition: c.Partition}
}

// PortInfo describes one (bidirectional) router port's wiring class and
// dimension, taken from the topology.
type PortInfo struct {
	Kind topology.PortKind
	Dim  topology.Dim
}

// Emission is a flit leaving through an output port this cycle; the
// network layer schedules its arrival downstream (or its ejection) after
// switch and link traversal.
type Emission struct {
	OutPort int
	Flit    FlitID
}

// CreditMsg is a credit freed by a flit departing input (Port, VC),
// to be returned to the upstream router.
type CreditMsg struct {
	Port, VC int
}

// NextDimFunc returns the dimension class of the output port a packet
// destined to dst will request at the downstream router reached through
// outPort (lookahead information for the Section 2.3 policies).
type NextDimFunc func(outPort, dst int) topology.Dim

// VCRangeFunc returns the downstream-VC index range [lo, hi) a packet
// destined to dst may be assigned when leaving through outPort. The
// network uses it to impose topology-level VC restrictions — the torus
// dateline classes — on top of the Section 2.3 assignment policy: the
// policy chooses freely among the VCs the range admits. A nil func (the
// default) admits every VC.
type VCRangeFunc func(outPort, dst int) (lo, hi int)

// Cache-line padding granularity for arena segments: per-router strides
// are rounded so no two routers' hot state shares a 64-byte line, which
// keeps the sharded phase-A workers from false-sharing during the
// parallel tick. int32 slots pad to 16 elements, bool slots to 64,
// uint64 mask words to 8.
const (
	padI32  = 16
	padBool = 64
	padWord = 8
)

func padTo(n, m int) int { return (n + m - 1) / m * m }

// Arena holds the hot per-router state of every router in one network as
// contiguous structure-of-arrays slabs. Each router owns one cache-line-
// aligned segment of each slab (sliced out at construction), so a full
// network tick walks linear memory in router order and the sharded
// phase-A workers touch disjoint line-aligned ranges.
//
// Layout per router segment, indexed by ivc = port*VCs + vc:
//
//	bufs    [ivc*BufDepth : ...]  VC buffer ring storage (FlitIDs)
//	head    [ivc]                 ring head slot
//	count   [ivc]                 buffered flits in the ring
//	ovc     [ivc]                 allocated downstream VC (-1 = none)
//	outPort [ivc]                 route of the current packet
//	wait    [ivc]                 cycles the front flit has waited
//	frontRoute, frontDst, frontHead [ivc]
//	                              cached Route/Dst/IsHead of the ring's
//	                              front flit (immutable while buffered),
//	                              so VC allocation never touches the slab
//	credits [out*VCs + v]         downstream credits per output VC
//	holder  [out*VCs + v]         ivc holding the output VC (-1 = free)
//
// and, in the mask slab, one packed bit per ivc (bit ivc&63 of word
// ivc>>6), per port, or per output VC, in consecutive segments so the
// default geometry's masks (radix 5, 6 VCs: six words) share one cache
// line:
//
//	occMask   [ivcWords]  ivc has buffered flits (count > 0)
//	ovcMask   [ivcWords]  ivc holds an output VC (ovc >= 0)
//	readyMask [ivcWords]  ivc may bid for the switch: it holds an output
//	                      VC with a credit, or it ejects
//	justMask  [ivcWords]  ivc won VC allocation this tick (NonSpeculative)
//	linkMask  [portWords] port is an inter-router Link (fixed at New)
//	busyMask  [busyWords] output VC (out, v) is held (holder >= 0): bit
//	                      out*busyStride + v
//
// busyStride is VCs rounded up to a power of two up to 64 bits, then to
// whole words, so an output's VC set never straddles a word boundary it
// does not own: its word i is busyMask[(out*busyStride)>>6 + i] shifted
// right by (out*busyStride)&63, masked to the VCs of word i.
//
// The ivc->(port, vc) tables and the per-sub-group VC masks are the same
// for every router of the network, so the arena holds them once.
type Arena struct {
	flits *FlitArena
	cfg   Config
	n     int

	bufStride  int // FlitID slots per router (padded)
	i32Stride  int // int32 slots per router (padded)
	boolStride int // bool slots per router (padded)
	maskStride int // mask words per router (padded)
	ivcWords   int // words per ivc mask: (Ports*VCs+63)/64
	portWords  int // words per port mask: (Ports+63)/64
	busyStride int // busyMask bits per output port
	busyWords  int // words of busyMask: (Ports*busyStride+63)/64

	bufs       []FlitID
	head       []int32
	count      []int32
	ovc        []int32
	outPort    []int32
	wait       []int32
	frontRoute []int32
	frontDst   []int32
	credits    []int32
	holder     []int32
	frontHead  []bool
	masks      []uint64

	portOf    []int32  // per ivc: its input port
	vcOf      []int32  // per ivc: its VC within the port
	groupMask []uint64 // sub-group g's VCs (Config.Alloc().Subgroup), as VC words from g*vcWords
}

// vcWords returns the words one output port's VC set spans.
func vcWords(vcs int) int { return (vcs + 63) / 64 }

// wordRange returns word i of the VC set [lo, hi): bit b is set when
// lo <= i*64+b < hi.
func wordRange(lo, hi, i int) uint64 {
	lo, hi = lo-i<<6, hi-i<<6
	if lo < 0 {
		lo = 0
	}
	if hi > 64 {
		hi = 64
	}
	if lo >= hi {
		return 0
	}
	return ^uint64(0) >> uint(64-(hi-lo)) << uint(lo)
}

// groupMasks packs the VCs of each of c's sub-groups into VC words:
// word i of sub-group g = c.Subgroup(v) is at g*vcWords+i.
func groupMasks(c alloc.Config) []uint64 {
	w := vcWords(c.VCs)
	m := make([]uint64, c.VirtualInputs*w)
	for v := 0; v < c.VCs; v++ {
		m[c.Subgroup(v)*w+v>>6] |= 1 << (uint(v) & 63)
	}
	return m
}

// NewArena builds the shared state slabs for numRouters routers of
// identical cfg geometry, all resolving flits through the given arena.
func NewArena(numRouters int, cfg Config, flits *FlitArena) *Arena {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if numRouters <= 0 {
		panic(fmt.Sprintf("router: arena for %d routers", numRouters))
	}
	pv := cfg.Ports * cfg.VCs
	ivcWords, portWords := (pv+63)/64, (cfg.Ports+63)/64
	busyStride := 1 << bits.Len(uint(cfg.VCs-1))
	if busyStride > 64 {
		busyStride = vcWords(cfg.VCs) * 64
	}
	busyWords := (cfg.Ports*busyStride + 63) / 64
	a := &Arena{
		flits:      flits,
		cfg:        cfg,
		n:          numRouters,
		bufStride:  padTo(pv*cfg.BufDepth, padI32),
		i32Stride:  padTo(pv, padI32),
		boolStride: padTo(pv, padBool),
		maskStride: padTo(4*ivcWords+portWords+busyWords, padWord),
		ivcWords:   ivcWords,
		portWords:  portWords,
		busyStride: busyStride,
		busyWords:  busyWords,
	}
	a.bufs = make([]FlitID, numRouters*a.bufStride)
	for i := range a.bufs {
		a.bufs[i] = NoFlit
	}
	a.head = make([]int32, numRouters*a.i32Stride)
	a.count = make([]int32, numRouters*a.i32Stride)
	a.ovc = make([]int32, numRouters*a.i32Stride)
	a.outPort = make([]int32, numRouters*a.i32Stride)
	a.wait = make([]int32, numRouters*a.i32Stride)
	a.frontRoute = make([]int32, numRouters*a.i32Stride)
	a.frontDst = make([]int32, numRouters*a.i32Stride)
	a.credits = make([]int32, numRouters*a.i32Stride)
	a.holder = make([]int32, numRouters*a.i32Stride)
	a.frontHead = make([]bool, numRouters*a.boolStride)
	a.masks = make([]uint64, numRouters*a.maskStride)
	for i := range a.ovc {
		a.ovc[i] = -1
		a.holder[i] = -1
	}
	for rtr := 0; rtr < numRouters; rtr++ {
		seg := a.credits[rtr*a.i32Stride:]
		for v := 0; v < pv; v++ {
			seg[v] = int32(cfg.BufDepth)
		}
	}
	a.portOf = make([]int32, pv)
	a.vcOf = make([]int32, pv)
	for ivc := range a.portOf {
		a.portOf[ivc], a.vcOf[ivc] = int32(ivc/cfg.VCs), int32(ivc%cfg.VCs)
	}
	a.groupMask = groupMasks(cfg.Alloc())
	return a
}

// Flits returns the flit arena the routers resolve FlitIDs through.
func (a *Arena) Flits() *FlitArena { return a.flits }

// Router is a cycle-accurate virtual-channel router. Its hot state lives
// in its network's Arena; the struct itself holds slice views into that
// router's segment of each slab, plus cold configuration and scratch.
type Router struct {
	id      int
	cfg     Config
	alloc   alloc.Allocator
	nextDim NextDimFunc
	vcRange VCRangeFunc
	flits   *FlitArena

	// lookahead reports whether the policy reads NextDimFunc, so VC
	// allocation skips the downstream route computation when it does not.
	lookahead bool

	busyStride int // see Arena

	// Arena segment views (see Arena layout).
	buf        []FlitID
	head       []int32
	count      []int32
	ovc        []int32
	outPort    []int32
	wait       []int32
	frontRoute []int32
	frontDst   []int32
	credits    []int32
	holder     []int32
	frontHead  []bool
	occMask    []uint64
	ovcMask    []uint64
	readyMask  []uint64
	justMask   []uint64
	linkMask   []uint64
	busyMask   []uint64

	// Shared arena tables (see Arena).
	portOf    []int32
	vcOf      []int32
	groupMask []uint64

	// occ counts buffered flits across all input VCs, maintained
	// incrementally (DeliverFlit adds, grant departures subtract) so the
	// activity-gated tick can test quiescence in O(1).
	occ int

	// vaOffset is the rotating VC-allocation priority: the ivc the next
	// VA pass starts from, kept reduced mod Ports*VCs.
	vaOffset int

	// scratch
	reqs   alloc.RequestSet
	vaFree []uint64 // chooseOVC: admitted free VCs of one output, as VC words
	vaBusy []uint64 // chooseOVC: held VCs of one output, as VC words
	ems    []Emission
	creds  []CreditMsg
}

// New builds a router. ports describes the wiring class of each port
// (symmetric in/out). The allocator must match cfg.Alloc() geometry.
// vcRange optionally restricts output-VC assignment per (outPort, dst)
// (nil: no restriction). arena is the shared per-network state arena;
// the router occupies slot id. A nil arena gives the router a private
// single-slot arena with its own flit slab (standalone/test use).
func New(id int, cfg Config, ports []PortInfo, allocator alloc.Allocator, nextDim NextDimFunc, vcRange VCRangeFunc, arena *Arena) *Router {
	if err := cfg.Validate(); err != nil {
		panic("router: invalid config: " + strings.TrimPrefix(err.Error(), "router: "))
	}
	if len(ports) != cfg.Ports {
		panic(fmt.Sprintf("router: %d port infos for %d ports", len(ports), cfg.Ports))
	}
	slot := id
	if arena == nil {
		arena = NewArena(1, cfg, NewFlitArena(cfg.Ports*cfg.VCs*cfg.BufDepth, false))
		slot = 0
	}
	// The arena's sub-group masks make VirtualInputs and Partition part
	// of its geometry too.
	if arena.cfg.Alloc() != cfg.Alloc() || arena.cfg.BufDepth != cfg.BufDepth {
		panic(fmt.Sprintf("router %d: arena geometry %+v depth %d does not match config %+v depth %d",
			id, arena.cfg.Alloc(), arena.cfg.BufDepth, cfg.Alloc(), cfg.BufDepth))
	}
	if slot < 0 || slot >= arena.n {
		panic(fmt.Sprintf("router %d: arena holds %d slots", id, arena.n))
	}
	pv := cfg.Ports * cfg.VCs
	masks := arena.masks[slot*arena.maskStride:]
	iw, pw := arena.ivcWords, arena.portWords
	r := &Router{
		id:         id,
		cfg:        cfg,
		alloc:      allocator,
		nextDim:    nextDim,
		vcRange:    vcRange,
		flits:      arena.flits,
		lookahead:  cfg.Policy.readsNextDim(cfg.VirtualInputs),
		busyStride: arena.busyStride,

		buf:        arena.bufs[slot*arena.bufStride:][:pv*cfg.BufDepth],
		head:       arena.head[slot*arena.i32Stride:][:pv],
		count:      arena.count[slot*arena.i32Stride:][:pv],
		ovc:        arena.ovc[slot*arena.i32Stride:][:pv],
		outPort:    arena.outPort[slot*arena.i32Stride:][:pv],
		wait:       arena.wait[slot*arena.i32Stride:][:pv],
		frontRoute: arena.frontRoute[slot*arena.i32Stride:][:pv],
		frontDst:   arena.frontDst[slot*arena.i32Stride:][:pv],
		credits:    arena.credits[slot*arena.i32Stride:][:pv],
		holder:     arena.holder[slot*arena.i32Stride:][:pv],
		frontHead:  arena.frontHead[slot*arena.boolStride:][:pv],
		occMask:    masks[:iw],
		ovcMask:    masks[iw : 2*iw],
		readyMask:  masks[2*iw : 3*iw],
		justMask:   masks[3*iw : 4*iw],
		linkMask:   masks[4*iw : 4*iw+pw],
		busyMask:   masks[4*iw+pw : 4*iw+pw+arena.busyWords],

		portOf:    arena.portOf,
		vcOf:      arena.vcOf,
		groupMask: arena.groupMask,

		vaFree: make([]uint64, vcWords(cfg.VCs)),
		vaBusy: make([]uint64, vcWords(cfg.VCs)),
		ems:    make([]Emission, 0, cfg.Ports),
		creds:  make([]CreditMsg, 0, cfg.Ports),
	}
	for p, info := range ports {
		if info.Kind == topology.Link {
			r.linkMask[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	r.reqs.Config = cfg.Alloc()
	return r
}

// ID returns the router's index in its network.
func (r *Router) ID() int { return r.id }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// Flits returns the flit arena the router resolves FlitIDs through.
func (r *Router) Flits() *FlitArena { return r.flits }

// DeliverFlit places an arriving flit into input (port, vc). The caller
// must have set the flit's Route for this router. It panics on buffer
// overflow, which would indicate a flow-control bug.
func (r *Router) DeliverFlit(port, vc int, id FlitID) {
	ivc := port*r.cfg.VCs + vc
	if int(r.count[ivc]) >= r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: buffer overflow at port %d vc %d", r.id, port, vc))
	}
	f := r.flits.At(id)
	if f.Route < 0 || f.Route >= r.cfg.Ports {
		panic(fmt.Sprintf("router %d: flit delivered with invalid route %d", r.id, f.Route))
	}
	f.VC = vc
	if r.count[ivc] == 0 {
		r.frontRoute[ivc] = int32(f.Route)
		r.frontDst[ivc] = int32(f.Dst)
		r.frontHead[ivc] = f.Type.IsHead()
		r.occMask[ivc>>6] |= 1 << (uint(ivc) & 63)
	}
	slot := int(r.head[ivc]) + int(r.count[ivc])
	if slot >= r.cfg.BufDepth {
		slot -= r.cfg.BufDepth
	}
	r.buf[ivc*r.cfg.BufDepth+slot] = id
	r.count[ivc]++
	r.occ++
}

// DeliverCredit returns one credit for downstream VC vc of outPort. The
// first credit back makes the input VC holding it ready to bid again.
func (r *Router) DeliverCredit(outPort, vc int) {
	cvi := outPort*r.cfg.VCs + vc
	if int(r.credits[cvi]) >= r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: credit overflow at port %d vc %d", r.id, outPort, vc))
	}
	if r.credits[cvi] == 0 {
		if h := r.holder[cvi]; h >= 0 {
			r.readyMask[h>>6] |= 1 << (uint(h) & 63)
		}
	}
	r.credits[cvi]++
}

// Busy reports whether the router holds any buffered flits. An idle
// router's Tick is exactly the empty tick SkipIdle replays — no
// emissions, no credits, no requests to the allocator — so the network's
// activity gate only needs to wake a router on a credit when Busy is
// true: credits are applied eagerly above, and a credit at an empty
// router cannot create work until a flit arrives (which sets the bit).
func (r *Router) Busy() bool { return r.occ > 0 }

// BufferSpace returns the free flit slots of input (port, vc); the
// network interface uses it to gate injection at local ports.
func (r *Router) BufferSpace(port, vc int) int {
	return r.cfg.BufDepth - int(r.count[port*r.cfg.VCs+vc])
}

// Occupancy returns the number of buffered flits across all input VCs.
// It recounts from the per-VC ring counters rather than trusting the
// incremental counter, and checks the packed state against the per-VC
// state it summarises: every ivc's occMask, ovcMask and readyMask bit
// against its ring count, output VC and that VC's credits, and every
// output VC's busyMask bit and holder against the ivc holding it. Tests
// use the pairs to cross-check each other.
func (r *Router) Occupancy() int {
	n := 0
	vcs := r.cfg.VCs
	for ivc, c := range r.count {
		n += int(c)
		if occ := hasBit(r.occMask, ivc); occ != (c > 0) {
			panic(fmt.Sprintf("router %d: ivc %d occMask bit %v with %d flits buffered", r.id, ivc, occ, c))
		}
		ovc := int(r.ovc[ivc])
		if held := hasBit(r.ovcMask, ivc); held != (ovc >= 0) {
			panic(fmt.Sprintf("router %d: ivc %d ovcMask bit %v with output VC %d", r.id, ivc, held, ovc))
		}
		ready := ovc >= 0
		if out := int(r.outPort[ivc]); ready && hasBit(r.linkMask, out) {
			ready = r.credits[out*vcs+ovc] > 0
			if h := r.holder[out*vcs+ovc]; int(h) != ivc {
				panic(fmt.Sprintf("router %d: ivc %d holds output VC (%d, %d) whose holder is %d", r.id, ivc, out, ovc, h))
			}
		}
		if bit := hasBit(r.readyMask, ivc); bit != ready {
			panic(fmt.Sprintf("router %d: ivc %d readyMask bit %v, want %v", r.id, ivc, bit, ready))
		}
	}
	for cvi, h := range r.holder {
		out, v := cvi/vcs, cvi%vcs
		if busy := hasBit(r.busyMask, out*r.busyStride+v); busy != (h >= 0) {
			panic(fmt.Sprintf("router %d: output VC (%d, %d) busyMask bit %v with holder %d", r.id, out, v, busy, h))
		}
		if h >= 0 && (int(r.ovc[h]) != v || int(r.outPort[h]) != out) {
			panic(fmt.Sprintf("router %d: output VC (%d, %d) held by ivc %d, which holds (%d, %d)",
				r.id, out, v, h, r.outPort[h], r.ovc[h]))
		}
	}
	if n != r.occ {
		panic(fmt.Sprintf("router %d: occupancy counter %d but %d flits buffered", r.id, r.occ, n))
	}
	return n
}

// hasBit reports whether bit i of the packed mask m is set.
func hasBit(m []uint64, i int) bool { return m[i>>6]>>(uint(i)&63)&1 != 0 }

// Credits exposes the credit count for (outPort, vc); used by tests.
func (r *Router) Credits(outPort, vc int) int { return int(r.credits[outPort*r.cfg.VCs+vc]) }

// Tick advances the router one cycle: VC allocation, then switch
// allocation, then switch traversal of the winners. It returns the flits
// leaving through output ports, the credits freed at input ports, and
// whether the router quiesced — no flits remain buffered, so until the
// next delivery every further tick would be the idle no-op SkipIdle can
// replay. The activity-gated network tick clears a quiesced router's
// activity bit and stops ticking it.
//
// Both returned slices are router-owned scratch, valid only until the
// next Tick call; callers must consume (or copy) them within the cycle.
//
//vixlint:hot
func (r *Router) Tick() (ems []Emission, credits []CreditMsg, quiesced bool) {
	r.ems = r.ems[:0]
	r.creds = r.creds[:0]
	if r.cfg.NonSpeculative {
		clear(r.justMask)
	}
	r.allocateVCs()
	grants := r.alloc.Allocate(r.buildRequests())
	for _, g := range grants {
		req := g.Request(&r.reqs)
		ivc := req.Port*r.cfg.VCs + req.VC
		r.wait[ivc] = 0
		h := int(r.head[ivc])
		id := r.buf[ivc*r.cfg.BufDepth+h]
		h++
		if h == r.cfg.BufDepth {
			h = 0
		}
		r.head[ivc] = int32(h)
		r.count[ivc]--
		r.occ--
		if r.count[ivc] > 0 {
			nf := r.flits.At(r.buf[ivc*r.cfg.BufDepth+h])
			r.frontRoute[ivc] = int32(nf.Route)
			r.frontDst[ivc] = int32(nf.Dst)
			r.frontHead[ivc] = nf.Type.IsHead()
		} else {
			r.occMask[ivc>>6] &^= 1 << (uint(ivc) & 63)
		}
		f := r.flits.At(id)
		ovc := int(r.ovc[ivc])
		bit := uint64(1) << (uint(ivc) & 63)
		if hasBit(r.linkMask, g.OutPort) {
			cvi := g.OutPort*r.cfg.VCs + ovc
			r.credits[cvi]--
			switch {
			case r.credits[cvi] < 0:
				panic(fmt.Sprintf("router %d: credit underflow at port %d vc %d", r.id, g.OutPort, ovc))
			case r.credits[cvi] == 0:
				r.readyMask[ivc>>6] &^= bit
			}
			f.Hops++
			if f.Type.IsTail() {
				b := g.OutPort*r.busyStride + ovc
				r.busyMask[b>>6] &^= 1 << (uint(b) & 63)
				r.holder[cvi] = -1
			}
		}
		f.VC = ovc
		if f.Type.IsTail() {
			r.ovc[ivc] = -1
			r.ovcMask[ivc>>6] &^= bit
			r.readyMask[ivc>>6] &^= bit
		}
		r.ems = append(r.ems, Emission{OutPort: g.OutPort, Flit: id})
		if hasBit(r.linkMask, req.Port) {
			r.creds = append(r.creds, CreditMsg{Port: req.Port, VC: req.VC})
		}
	}
	return r.ems, r.creds, r.occ == 0
}

// SkipIdle fast-forwards the router across cycles consecutive ticks
// during which it held no buffered flits. An idle Tick emits nothing and
// frees no credits; its only persistent effects are the VC-allocation
// priority rotation, the clearing of the NonSpeculative just-allocated
// marks, and whatever the allocator does with an empty request set —
// which built-in allocators compress to O(1) via alloc.IdleSkipper. A
// custom allocator without SkipIdle gets the literal empty Allocate
// calls, so gated and dense runs stay byte-identical for any allocator.
//
// The caller asserts the router was empty for the skipped span; current
// buffer contents are irrelevant (the activity-gated tick calls SkipIdle
// at reactivation, after the cycle's deliveries have already landed) —
// an idle tick's effects touch nothing the buffers feed.
func (r *Router) SkipIdle(cycles int) {
	r.vaOffset = (r.vaOffset + cycles) % len(r.count)
	if r.cfg.NonSpeculative {
		clear(r.justMask)
	}
	if s, ok := r.alloc.(alloc.IdleSkipper); ok {
		s.SkipIdle(cycles)
		return
	}
	r.reqs.Requests = r.reqs.Requests[:0]
	for i := 0; i < cycles; i++ {
		r.alloc.Allocate(&r.reqs)
	}
}

// allocateVCs performs the VC allocation stage: head flits at the front
// of their buffers acquire an output VC at the downstream router. The
// waiting input VCs are occMask &^ ovcMask; they are visited in a
// rotating order for long-run fairness — ascending from vaOffset, then
// wrapping to the bits below it. A visit changes only the visited VC's
// ovcMask bit, so each word's pending bits can be read once.
func (r *Router) allocateVCs() {
	nw := len(r.occMask)
	start := r.vaOffset
	if r.vaOffset++; r.vaOffset == len(r.count) {
		r.vaOffset = 0
	}
	sw := start >> 6
	below := uint64(1)<<(uint(start)&63) - 1 // bits of word sw before start
	for i := 0; i <= nw; i++ {
		wi := sw + i
		if wi >= nw {
			wi -= nw
		}
		w := r.occMask[wi] &^ r.ovcMask[wi]
		switch i {
		case 0:
			w &^= below
		case nw:
			w &= below
		}
		for ; w != 0; w &= w - 1 {
			r.allocateVC(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// allocateVC tries to assign an output VC to the head flit fronting ivc.
func (r *Router) allocateVC(ivc int) {
	if !r.frontHead[ivc] {
		// A body flit without a valid output VC cannot occur: the VC
		// is held from head grant to tail departure.
		panic(fmt.Sprintf("router %d: body flit at front of unallocated VC", r.id))
	}
	out := int(r.frontRoute[ivc])
	v := 0
	ready := true
	// A route never names an Unused port, so a non-Link output is the
	// Local one. Ejection needs no downstream VC: the sink absorbs at link
	// bandwidth, serialised per output port by switch allocation.
	if hasBit(r.linkMask, out) {
		if v = r.chooseOVC(out, int(r.frontDst[ivc])); v < 0 {
			return // all suitable downstream VCs busy; retry next cycle
		}
		b := out*r.busyStride + v
		r.busyMask[b>>6] |= 1 << (uint(b) & 63)
		cvi := out*r.cfg.VCs + v
		r.holder[cvi] = int32(ivc)
		ready = r.credits[cvi] > 0
	}
	r.ovc[ivc], r.outPort[ivc] = int32(v), int32(out)
	bit := uint64(1) << (uint(ivc) & 63)
	r.ovcMask[ivc>>6] |= bit
	if ready {
		r.readyMask[ivc>>6] |= bit
	}
	if r.cfg.NonSpeculative {
		r.justMask[ivc>>6] |= bit
	}
}

// chooseOVC applies the configured Section 2.3 policy to output port out.
// It reads out's held VCs from busyMask a word at a time, so when no
// admitted VC is free it fails on one AND-NOT per VC word.
func (r *Router) chooseOVC(out, dst int) int {
	vcs := r.cfg.VCs
	lo, hi := 0, vcs
	if r.vcRange != nil {
		lo, hi = r.vcRange(out, dst)
	}
	base := out * r.busyStride
	var anyFree uint64
	for i := range r.vaFree {
		b := base + i<<6
		busy := r.busyMask[b>>6] >> (uint(b) & 63) & wordRange(0, vcs, i)
		r.vaBusy[i] = busy
		r.vaFree[i] = wordRange(lo, hi, i) &^ busy
		anyFree |= r.vaFree[i]
	}
	if anyFree == 0 {
		return -1
	}
	ctx := vaContext{
		free:      r.vaFree,
		busy:      r.vaBusy,
		credits:   r.credits[out*vcs : out*vcs+vcs],
		groupMask: r.groupMask,
		groups:    r.cfg.VirtualInputs,
	}
	if r.lookahead {
		ctx.nextDim = r.nextDim(out, dst)
	}
	return r.cfg.Policy.choose(&ctx)
}

// buildRequests assembles this cycle's switch-allocation request set:
// every input VC whose front flit has an output VC and a downstream
// credit (or ejects) requests its packet's output port. The candidates
// are occMask & readyMask — readyMask bits are a subset of ovcMask's —
// walked in ascending ivc (port, then VC) order.
func (r *Router) buildRequests() *alloc.RequestSet {
	r.reqs.Requests = r.reqs.Requests[:0]
	for wi, occ := range r.occMask {
		// justMask is only ever set under NonSpeculative: VA and SA may
		// not overlap in the same cycle.
		for w := occ & r.readyMask[wi] &^ r.justMask[wi]; w != 0; w &= w - 1 {
			ivc := wi<<6 + bits.TrailingZeros64(w)
			out := int(r.outPort[ivc])
			r.reqs.Requests = append(r.reqs.Requests, alloc.Request{
				Port: int(r.portOf[ivc]), VC: int(r.vcOf[ivc]), OutPort: out, Age: int(r.wait[ivc]),
			})
			r.wait[ivc]++
		}
	}
	return &r.reqs
}
