package alloc

import (
	"testing"

	"vix/internal/arb"
	"vix/internal/sim"
)

// denseSeparableIF is a test-local reference copy of the input-first
// separable allocator written with dense O(Rows) and O(Ports x Rows)
// scans — the algorithm as specified, without the packed occupancy-word
// walks the production SeparableIF uses. The differential test below
// runs both in lockstep; any divergence means the packed walks changed
// behaviour, not just cost.
type denseSeparableIF struct {
	cfg        Config
	inputArbs  []arb.Arbiter
	outputArbs []arb.Arbiter

	slotReq   []bool
	rowReq    []bool
	candidate []int
	slotToReq []int
	rows      [][]int
	grants    []Grant
}

func newDenseSeparableIF(cfg Config) *denseSeparableIF {
	d := &denseSeparableIF{
		cfg:       cfg,
		slotReq:   make([]bool, cfg.GroupSize()),
		rowReq:    make([]bool, cfg.Rows()),
		candidate: make([]int, cfg.Rows()),
		slotToReq: make([]int, cfg.GroupSize()),
		rows:      make([][]int, cfg.Rows()),
	}
	d.inputArbs = make([]arb.Arbiter, cfg.Rows())
	for i := range d.inputArbs {
		d.inputArbs[i] = arb.NewRoundRobin(cfg.GroupSize())
	}
	d.outputArbs = make([]arb.Arbiter, cfg.Ports)
	for i := range d.outputArbs {
		d.outputArbs[i] = arb.NewRoundRobin(cfg.Rows())
	}
	return d
}

func (d *denseSeparableIF) allocate(rs *RequestSet) []Grant {
	for i := range d.rows {
		d.rows[i] = d.rows[i][:0]
	}
	for i, r := range rs.Requests {
		row := rs.Config.Row(r.Port, r.VC)
		d.rows[row] = append(d.rows[row], i)
	}

	for row := range d.candidate {
		d.candidate[row] = -1
		if len(d.rows[row]) == 0 {
			continue
		}
		for i := range d.slotReq {
			d.slotReq[i] = false
		}
		for i := range d.slotToReq {
			d.slotToReq[i] = -1
		}
		for _, idx := range d.rows[row] {
			slot := d.cfg.Slot(rs.Requests[idx].VC)
			if d.slotToReq[slot] < 0 {
				d.slotToReq[slot] = idx
			}
		}
		for slot, reqIdx := range d.slotToReq {
			d.slotReq[slot] = reqIdx >= 0
		}
		if slot := d.inputArbs[row].Arbitrate(d.slotReq); slot >= 0 {
			d.candidate[row] = d.slotToReq[slot]
		}
	}

	d.grants = d.grants[:0]
	for out := 0; out < d.cfg.Ports; out++ {
		for i := range d.rowReq {
			d.rowReq[i] = false
		}
		any := false
		for row, reqIdx := range d.candidate {
			if reqIdx >= 0 && rs.Requests[reqIdx].OutPort == out {
				d.rowReq[row] = true
				any = true
			}
		}
		if !any {
			continue
		}
		row := d.outputArbs[out].Arbitrate(d.rowReq)
		req := rs.Requests[d.candidate[row]]
		d.grants = append(d.grants, Grant{Req: d.candidate[row], OutPort: out, Row: row})
		d.outputArbs[out].Ack(row)
		d.inputArbs[row].Ack(d.cfg.Slot(req.VC))
	}
	return d.grants
}

// TestSeparableIFMatchesDenseReference runs the packed production
// allocator and the dense reference in lockstep on identical request
// streams — load swinging between saturation, trickle, and silence so
// stale-scratch bugs would surface — and demands identical grant
// sequences every cycle. The 16-port ideal-VIX geometry pushes Rows past
// 64 and the 70-VC one GroupSize past 64, covering the multi-word row
// and slot masks. Every third cycle repeats a few VCs' requests toward
// other outputs, pinning the first-request-per-slot rule.
func TestSeparableIFMatchesDenseReference(t *testing.T) {
	for _, cfg := range []Config{
		{Ports: 5, VCs: 4, VirtualInputs: 1},
		{Ports: 5, VCs: 6, VirtualInputs: 2},
		{Ports: 8, VCs: 6, VirtualInputs: 6},
		{Ports: 16, VCs: 8, VirtualInputs: 8}, // Rows = 128: two row-mask words
		{Ports: 3, VCs: 70, VirtualInputs: 1}, // GroupSize = 70: two slot-mask words
	} {
		packed := NewSeparableIF(cfg)
		dense := newDenseSeparableIF(cfg)
		rng := sim.NewRNG(404)
		loads := []float64{0.9, 0.05, 0, 0.5, 0, 0.95, 0.1}
		for cycle := 0; cycle < 400; cycle++ {
			rs := randomRequestSet(rng, cfg, loads[cycle%len(loads)])
			if n := len(rs.Requests); n > 0 && cycle%3 == 0 {
				for i := 0; i < 3; i++ {
					dup := rs.Requests[rng.Intn(n)]
					dup.OutPort = rng.Intn(cfg.Ports)
					rs.Requests = append(rs.Requests, dup)
				}
			}
			gp, gd := packed.Allocate(rs), dense.allocate(rs)
			if len(gp) != len(gd) {
				t.Fatalf("cfg %+v cycle %d: packed granted %d, dense %d", cfg, cycle, len(gp), len(gd))
			}
			for j := range gp {
				if gp[j] != gd[j] {
					t.Fatalf("cfg %+v cycle %d grant %d: packed %+v, dense %+v", cfg, cycle, j, gp[j], gd[j])
				}
			}
			if err := Validate(rs, gp); err != nil {
				t.Fatalf("cfg %+v cycle %d: %v", cfg, cycle, err)
			}
		}
	}
}

// TestAllocatorsSurviveLoadSwings hammers the occupancy-tracked scratch
// of every allocator with alternating saturated, sparse, and empty
// request sets: a cell or row left stale by a lazy clear would produce a
// grant with no matching request, which Validate rejects.
func TestAllocatorsSurviveLoadSwings(t *testing.T) {
	rng := sim.NewRNG(405)
	loads := []float64{0.95, 0, 0.02, 0.95, 0.02, 0}
	for _, kind := range Kinds() {
		cfg := Config{Ports: 8, VCs: 6, VirtualInputs: 2}
		switch kind {
		case KindIdeal:
			cfg.VirtualInputs = cfg.VCs
		case KindSparoflo:
			cfg.VirtualInputs = 1
		}
		a := MustNew(kind, cfg)
		for cycle := 0; cycle < 300; cycle++ {
			rs := randomRequestSet(rng, cfg, loads[cycle%len(loads)])
			if err := Validate(rs, a.Allocate(rs)); err != nil {
				t.Fatalf("%s cycle %d: %v", kind, cycle, err)
			}
		}
	}
}
