package main

import (
	"fmt"
	"sync"
	"time"

	"vix/internal/alloc"
)

// timedPrefix names the timing wrapper's allocator kinds: "timed/if"
// wraps "if", and so on for every built-in kind.
const timedPrefix = "timed/"

// timedKind returns the registered timing-wrapper kind for a built-in.
func timedKind(k alloc.Kind) alloc.Kind { return alloc.Kind(timedPrefix + string(k)) }

// allocCounts accumulates one allocator instance's work. Each router
// owns its allocator, and the sharded tick runs a router on exactly one
// worker per cycle, so per-instance counters need no synchronisation;
// they are read only between Steps.
type allocCounts struct {
	Calls, EmptyCalls, Requests, Grants, DualGrants int64
	Nanos                                           int64
}

// minus returns c - o, the work done between two readings.
func (c allocCounts) minus(o allocCounts) allocCounts {
	return allocCounts{
		Calls: c.Calls - o.Calls, EmptyCalls: c.EmptyCalls - o.EmptyCalls,
		Requests: c.Requests - o.Requests, Grants: c.Grants - o.Grants,
		DualGrants: c.DualGrants - o.DualGrants, Nanos: c.Nanos - o.Nanos,
	}
}

func (c *allocCounts) add(o allocCounts) {
	c.Calls += o.Calls
	c.EmptyCalls += o.EmptyCalls
	c.Requests += o.Requests
	c.Grants += o.Grants
	c.DualGrants += o.DualGrants
	c.Nanos += o.Nanos
}

// timedAlloc delegates to a built-in allocator and times each Allocate
// call from outside. It never touches the request set or the grants, so
// the simulation is byte-identical with and without it.
type timedAlloc struct {
	inner   alloc.Allocator
	skipper alloc.IdleSkipper
	perPort []int32 // grants per input port within one call
	ports   []int   // ports granted in the current call
	counts  allocCounts
}

func (t *timedAlloc) Name() string { return timedPrefix + t.inner.Name() }

func (t *timedAlloc) Reset() { t.inner.Reset() }

// SkipIdle forwards to the wrapped allocator, so the activity-gated tick
// fast-forwards exactly as it would without the wrapper.
func (t *timedAlloc) SkipIdle(cycles int) { t.skipper.SkipIdle(cycles) }

func (t *timedAlloc) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	start := time.Now()
	grants := t.inner.Allocate(rs)
	t.counts.Nanos += int64(time.Since(start))
	t.counts.Calls++
	if len(rs.Requests) == 0 {
		t.counts.EmptyCalls++
	}
	t.counts.Requests += int64(len(rs.Requests))
	t.counts.Grants += int64(len(grants))
	for _, g := range grants {
		p := rs.Requests[g.Req].Port
		if t.perPort[p] == 0 {
			t.ports = append(t.ports, p)
		}
		t.perPort[p]++
	}
	for _, p := range t.ports {
		if n := t.perPort[p]; n >= 2 {
			t.counts.DualGrants += int64(n)
		}
		t.perPort[p] = 0
	}
	t.ports = t.ports[:0]
	return grants
}

// timedBuilt records every wrapper the factories build until the next
// takeTimed, so a caller collects the instances one network.New (or
// router.New) created. Networks are built one at a time.
var timedBuilt struct {
	mu   sync.Mutex
	list []*timedAlloc
}

func init() {
	for _, k := range alloc.Kinds() {
		kind := k
		err := alloc.Register(timedKind(kind), func(cfg alloc.Config) (alloc.Allocator, error) {
			inner, err := alloc.New(kind, cfg)
			if err != nil {
				return nil, err
			}
			skipper, ok := inner.(alloc.IdleSkipper)
			if !ok {
				return nil, fmt.Errorf("timing wrapper: %q does not implement alloc.IdleSkipper", kind)
			}
			t := &timedAlloc{inner: inner, skipper: skipper, perPort: make([]int32, cfg.Ports), ports: make([]int, 0, cfg.Ports)}
			timedBuilt.mu.Lock()
			timedBuilt.list = append(timedBuilt.list, t)
			timedBuilt.mu.Unlock()
			return t, nil
		})
		if err != nil {
			panic(fmt.Sprintf("registering timing wrapper for %q: %v", kind, err))
		}
	}
}

// takeTimed returns the wrappers built since the previous call.
func takeTimed() []*timedAlloc {
	timedBuilt.mu.Lock()
	defer timedBuilt.mu.Unlock()
	l := timedBuilt.list
	timedBuilt.list = nil
	return l
}

// sumCounts totals the counters of a set of wrappers.
func sumCounts(ts []*timedAlloc) allocCounts {
	var c allocCounts
	for _, t := range ts {
		c.add(t.counts)
	}
	return c
}
