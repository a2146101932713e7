package network

import (
	"math/bits"
	"runtime"

	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/stats"
	"vix/internal/topology"
)

// This file implements the two-phase parallel router tick selected by
// Config.Workers > 1. The determinism argument:
//
//   - Phase A (parallel): the cycle's worklist of active routers is split
//     into contiguous segments, and each segment ticks its routers on one
//     pool worker. Within a cycle, a router tick reads and writes only
//     router-local state — input buffers, credit counters, arbiter
//     pointers — because all cross-router traffic travels through the
//     delayed flitQ/credQ/ejectQ wheels, which are only written in phase
//     B and only read at the top of the next Step. Phase A therefore
//     computes, for every router, the identical emissions and credits the
//     serial walk would have, no matter how segments are scheduled. Each
//     segment also accumulates the datapath activity counters into a
//     private stats.Delta.
//
//   - Phase B (stepping goroutine): segments are merged in worklist —
//     hence router-index — order: every queue append, credit schedule,
//     and counter merge happens in exactly the order the serial walk
//     performs them. Integer counter merges are order-independent anyway;
//     the queue appends are what byte-identity actually rests on, and
//     index-ordered merging makes them literally identical.
//
// Traffic generation, injection, ejection, and the workload callbacks
// never leave the stepping goroutine: they own the RNG streams and the
// order-sensitive float latency accumulation.
//
// The per-index slots hold only slice headers: Router.Tick's returned
// emissions and credits are router-owned scratch valid until that
// router's next Tick, which cannot happen before phase B of this cycle
// completes, so no copying is needed and the steady state allocates
// nothing.

// activeScratch is the phase-A state of the parallel tick: the cycle's
// worklist of active router indices, its contiguous split into
// per-worker segments, and per-index result slots. Pool.Do hands each
// segment to exactly one worker; segments partition the worklist and
// worklist entries name distinct routers, so job si owns its slice of
// index slots and routers exclusively. Everything is sized once in
// initParallel; the per-cycle rebuilds of work and seg reuse their
// backing arrays, so the steady state allocates nothing.
type activeScratch struct {
	work     []int32              // active router indices, ascending
	seg      []int32              // segment si covers work[seg[si]:seg[si+1]]
	ems      [][]router.Emission  // per worklist index: Tick's emission scratch
	creds    [][]router.CreditMsg // per worklist index: Tick's credit scratch
	delta    []stats.Delta        // per segment: phase-A activity counters
	quiesced []bool               // per worklist index: Tick reported quiescence
	fn       func(int)            // runActive, bound once
}

// resolveWorkers maps Config.Workers onto an effective worker count:
// 0 is the serial walk, negative is GOMAXPROCS, positive is taken as
// given. Any result above 1 makes the network park pool goroutines
// between cycles — owners must call Close when done (vixlint's
// hygiene/close rule enforces this for cmd/ binaries).
func resolveWorkers(w int) int {
	switch {
	case w == 0:
		return 1
	case w < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return w
	}
}

// initParallel builds the worker pool and worklist scratch when the
// configuration asks for a parallel tick. With one effective worker (or a
// one-router network) the network stays on the serial walk.
func (n *Network) initParallel() {
	workers := resolveWorkers(n.cfg.Workers)
	if workers > len(n.routers) {
		workers = len(n.routers)
	}
	if workers <= 1 {
		return
	}
	n.pool = sim.NewPool(workers)
	nr := len(n.routers)
	n.act = activeScratch{
		work:     make([]int32, 0, nr),
		seg:      make([]int32, 0, workers+1),
		ems:      make([][]router.Emission, nr),
		creds:    make([][]router.CreditMsg, nr),
		delta:    make([]stats.Delta, workers),
		quiesced: make([]bool, nr),
	}
	// Built once: handing a fresh method value to Pool.Do every cycle
	// would allocate.
	n.act.fn = n.runActive
}

// runActive is phase A of the parallel tick for one worklist
// segment: fast-forward each of the segment's routers across its idle
// span, tick it, keep the emission and credit slice headers and the
// quiescence verdict in the worklist index's own slots, and accumulate
// the activity counters the serial walk's forward() would have recorded.
//
//vixlint:hot
func (n *Network) runActive(si int) {
	var d stats.Delta
	for i := n.act.seg[si]; i < n.act.seg[si+1]; i++ {
		r := int(n.act.work[i])
		rt := n.routers[r]
		if skip := n.cycle - n.lastTick[r] - 1; skip > 0 {
			rt.SkipIdle(int(skip))
		}
		n.lastTick[r] = n.cycle
		ems, creds, quiesced := rt.Tick()
		n.act.ems[i], n.act.creds[i], n.act.quiesced[i] = ems, creds, quiesced
		for _, e := range ems {
			d.BufferReads++
			d.XbarTraversals++
			if n.topo.Conn[r][e.OutPort].Kind == topology.Link {
				d.LinkTraversals++
			}
		}
	}
	n.act.delta[si] = d
}

// tickActiveParallel builds the cycle's worklist from the activity words
// (ascending router order), splits it into one contiguous segment per
// worker, runs phase A across the pool, and merges in worklist — hence
// router-index — order on the stepping goroutine, clearing the bits of
// routers that quiesced (unless the gate is disabled).
func (n *Network) tickActiveParallel() {
	work := n.act.work[:0]
	for wi, w := range n.actR {
		for ; w != 0; w &= w - 1 {
			work = append(work, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	n.act.work = work
	n.routerTicks += int64(len(work))
	k := n.pool.Workers()
	if k > len(work) {
		k = len(work)
	}
	if k == 0 {
		return
	}
	seg := n.act.seg[:0]
	for i := 0; i <= k; i++ {
		seg = append(seg, int32(len(work)*i/k))
	}
	n.act.seg = seg
	n.pool.Do(k, n.act.fn)
	for si := 0; si < k; si++ {
		n.col.Merge(n.act.delta[si])
		for i := seg[si]; i < seg[si+1]; i++ {
			r := int(work[i])
			for _, e := range n.act.ems[i] {
				n.deliverEmission(r, e)
			}
			for _, cm := range n.act.creds[i] {
				n.scheduleCredit(r, cm)
			}
			if n.act.quiesced[i] && !n.cfg.DisableActivityGate {
				n.actR.Clear(r)
			}
		}
	}
}

// Workers returns the effective parallel-tick worker count (1 for the
// serial walk).
func (n *Network) Workers() int {
	if n.pool == nil {
		return 1
	}
	return n.pool.Workers()
}

// Close releases the parallel-tick workers parked between cycles. It is
// a no-op for serial networks and is idempotent; a closed network may
// even keep stepping (the pool restarts its workers lazily), but callers
// that construct many parallel networks — sweeps, tests — should Close
// each one when done so parked goroutines do not accumulate.
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.Close()
	}
}
