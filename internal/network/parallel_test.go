package network

import (
	"fmt"
	"reflect"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
)

// ejectRecord captures the identity and timing of one ejected flit; the
// byte-identity tests compare full ejection sequences, which pins not
// just counter totals but the exact order every queue append happened in.
type ejectRecord struct {
	packetID    uint64
	seq         int
	src, dst    int
	createCycle int64
	ejectCycle  int64
	hops        int
}

// runRecorded runs a saturated 8x8 VIX mesh for the given cycles with the
// given worker count, recording every ejection, and returns the ejection
// sequence and the final snapshot.
func runRecorded(t *testing.T, kind alloc.Kind, k, workers, cycles int) ([]ejectRecord, stats.Snapshot) {
	t.Helper()
	topo := topology.NewMesh(8, 8)
	policy := router.PolicyMaxFree
	if k > 1 {
		policy = router.PolicyBalanced
	}
	cfg := meshConfig(topo, kind, k, policy)
	cfg.InjectionRate = 0
	cfg.MaxInjection = true
	cfg.Seed = 7
	cfg.Workers = workers
	var ejected []ejectRecord
	cfg.OnEject = func(f *router.Flit) {
		ejected = append(ejected, ejectRecord{
			packetID: f.PacketID, seq: f.Seq, src: f.Src, dst: f.Dst,
			createCycle: f.CreateCycle, ejectCycle: f.EjectCycle, hops: f.Hops,
		})
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Run(cycles)
	return ejected, n.Collector().Snapshot()
}

// TestParallelTickByteIdenticalAcrossWorkers is the tentpole guarantee:
// a saturated 8x8 VIX mesh produces bit-identical statistics and the
// exact same ejection sequence for workers ∈ {1, 2, 8}. Worker count is
// a wall-clock knob, never a physics knob.
func TestParallelTickByteIdenticalAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		kind alloc.Kind
		k    int
	}{
		{alloc.KindSeparableIF, 2},
		{alloc.KindWavefront, 1},
	} {
		t.Run(fmt.Sprintf("%s_k%d", tc.kind, tc.k), func(t *testing.T) {
			const cycles = 2500
			refEjects, refSnap := runRecorded(t, tc.kind, tc.k, 1, cycles)
			if len(refEjects) == 0 {
				t.Fatal("reference run ejected nothing; workload broken")
			}
			for _, workers := range []int{2, 8} {
				ejects, snap := runRecorded(t, tc.kind, tc.k, workers, cycles)
				if !reflect.DeepEqual(snap, refSnap) {
					t.Errorf("workers=%d snapshot diverged:\n got %+v\nwant %+v", workers, snap, refSnap)
				}
				if !reflect.DeepEqual(ejects, refEjects) {
					for i := range refEjects {
						if i >= len(ejects) || ejects[i] != refEjects[i] {
							t.Errorf("workers=%d ejection sequence diverged at index %d (of %d)", workers, i, len(refEjects))
							break
						}
					}
					if len(ejects) != len(refEjects) {
						t.Errorf("workers=%d ejected %d flits, want %d", workers, len(ejects), len(refEjects))
					}
				}
			}
		})
	}
}

// TestParallelTickMoreWorkersThanRouters checks the worklist split
// degrades gracefully when the requested width exceeds the router count.
func TestParallelTickMoreWorkersThanRouters(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	cfg.Workers = 64
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Workers(); got > topo.NumRouters {
		t.Errorf("effective workers = %d for %d routers", got, topo.NumRouters)
	}
	n.Run(1500)
	if n.Collector().Snapshot().FlitsEjected == 0 {
		t.Error("no traffic delivered under clamped worker count")
	}
}

// TestParallelDeadlockWatchdogTrips mirrors the serial watchdog test with
// the parallel tick enabled: the forward-progress check lives in the
// serial tail of Step and must keep firing (on the stepping goroutine)
// when routers tick on a pool.
func TestParallelDeadlockWatchdogTrips(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	w := &singlePacket{src: 0, dst: 15, size: 4, at: 0}
	cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.Workload = w
	cfg.DeadlockCycles = 2 // absurdly tight: pipeline latency alone exceeds it
	cfg.Workers = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("watchdog did not trip at threshold 2 with workers=2")
		}
	}()
	n.Run(100)
}

// TestParallelNetworkCloseIdempotent checks Close on serial and parallel
// networks, repeatedly.
func TestParallelNetworkCloseIdempotent(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, workers := range []int{1, 3} {
		cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
		cfg.Workers = workers
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(200)
		n.Close()
		n.Close()
	}
}
