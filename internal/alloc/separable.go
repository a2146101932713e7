package alloc

import (
	"math/bits"

	"vix/internal/arb"
)

// SeparableIF is the input-first separable allocator. It allocates in two
// phases: one input arbiter per crossbar row selects a candidate VC among
// the row's sub-group, then one output arbiter per output port selects a
// winning row among the candidates requesting it.
//
// With Config.VirtualInputs = 1 this is the conventional baseline
// allocator (one winner per input port); with VirtualInputs = 2 it is the
// paper's VIX allocator, where two VCs of one port can win in the same
// cycle through different crossbar rows; with VirtualInputs = VCs it
// degenerates to the ideal VIX with per-VC crossbar inputs.
//
// Arbiter pointers follow iSLIP semantics: an input arbiter advances its
// pointer only when its candidate also wins output arbitration, so a VC
// that loses in phase two keeps priority the next cycle.
type SeparableIF struct {
	cfg        Config
	inputArbs  []arb.RoundRobin // one per crossbar row, over GroupSize slots
	outputArbs []arb.RoundRobin // one per output port, over Rows rows

	rowOf  []int32 // per port*VCs+vc: precomputed Config.Row
	slotOf []int32 // per vc: precomputed Config.Slot
	gs     int     // GroupSize: slots per row
	sw, rw int     // words per slot mask (GroupSize bits) and row mask (Rows bits)

	// Request lines as packed words, all-zero between calls: the request
	// pass sets them, and phase one drains occ and slots, phase two
	// outMask, as it consumes them.
	occ     bitset   // rows holding requests
	slots   []uint64 // per row, sw words: slots whose VC offers a request
	outMask []uint64 // per output port, rw words: rows whose candidate requests it

	reqOf     []int // per row*GroupSize+slot: first request offered there; stale where the slot bit is clear
	candidate []int // per row: phase-one winner; stale for rows absent from outMask
	grants    []Grant
}

// NewSeparableIF returns a separable input-first allocator for cfg.
// It panics if cfg is invalid.
func NewSeparableIF(cfg Config) *SeparableIF {
	mustValidate(cfg)
	gs, rows := cfg.GroupSize(), cfg.Rows()
	sw, rw := (gs+63)/64, (rows+63)/64
	return &SeparableIF{
		cfg:        cfg,
		inputArbs:  arb.NewRoundRobins(rows, gs),
		outputArbs: arb.NewRoundRobins(cfg.Ports, rows),
		rowOf:      rowTable(cfg),
		slotOf:     slotTable(cfg),
		gs:         gs,
		sw:         sw,
		rw:         rw,
		occ:        newBitset(rows),
		slots:      make([]uint64, rows*sw),
		outMask:    make([]uint64, cfg.Ports*rw),
		reqOf:      make([]int, rows*gs),
		candidate:  make([]int, rows),
		grants:     make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator. The name is the registry Kind ("if")
// regardless of geometry; whether the crossbar is a VIX one is carried by
// Config.VirtualInputs, not by the allocator's identity.
func (s *SeparableIF) Name() string { return "if" }

// Reset implements Allocator.
func (s *SeparableIF) Reset() {
	for i := range s.inputArbs {
		s.inputArbs[i].Reset()
	}
	for i := range s.outputArbs {
		s.outputArbs[i].Reset()
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
//
//vixlint:hot
func (s *SeparableIF) Allocate(rs *RequestSet) []Grant {
	// One pass sorts each request onto its row's slot line. A slot keeps
	// the first request offered there: callers offer at most one request
	// per VC, so a repeat is malformed input and loses.
	vcs := s.cfg.VCs
	for i := range rs.Requests {
		r := &rs.Requests[i]
		row := int(s.rowOf[r.Port*vcs+r.VC])
		slot := int(s.slotOf[r.VC])
		wi, bit := row*s.sw+slot>>6, uint64(1)<<(uint(slot)&63)
		if s.slots[wi]&bit == 0 {
			s.slots[wi] |= bit
			s.reqOf[row*s.gs+slot] = i
		}
		s.occ.set(row)
	}

	// Phase one: each occupied crossbar row's input arbiter picks one VC
	// from the row's slot word(s). Rows are visited in ascending order —
	// the rows a dense 0..Rows loop would have worked on — and each
	// candidate is sorted into its output's row mask as it is chosen.
	for wi, w := range s.occ {
		for ; w != 0; w &= w - 1 {
			row := wi<<6 + bits.TrailingZeros64(w)
			var slot int
			if s.sw == 1 {
				slot = s.inputArbs[row].ArbitrateWord(s.slots[row])
				s.slots[row] = 0
			} else {
				line := s.slots[row*s.sw : (row+1)*s.sw]
				slot = s.inputArbs[row].ArbitrateWords(line)
				clear(line)
			}
			reqIdx := s.reqOf[row*s.gs+slot]
			s.candidate[row] = reqIdx
			out := rs.Requests[reqIdx].OutPort
			s.outMask[out*s.rw+row>>6] |= 1 << (uint(row) & 63)
		}
		s.occ[wi] = 0
	}

	// Phase two: each output arbiter picks one row among the candidates
	// requesting it, straight from the output's row mask.
	s.grants = s.grants[:0]
	for out := 0; out < s.cfg.Ports; out++ {
		var row int
		if s.rw == 1 {
			w := s.outMask[out]
			if w == 0 {
				continue
			}
			row = s.outputArbs[out].ArbitrateWord(w)
			s.outMask[out] = 0
		} else {
			line := s.outMask[out*s.rw : (out+1)*s.rw]
			if row = s.outputArbs[out].ArbitrateWords(line); row < 0 {
				continue
			}
			clear(line)
		}
		reqIdx := s.candidate[row]
		s.grants = append(s.grants, Grant{Req: reqIdx, OutPort: out, Row: row})
		// iSLIP pointer update: both arbiters advance only on a grant.
		s.outputArbs[out].Ack(row)
		s.inputArbs[row].Ack(int(s.slotOf[rs.Requests[reqIdx].VC]))
	}
	return s.grants
}
