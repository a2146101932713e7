package router

import (
	"testing"

	"vix/internal/alloc"
	"vix/internal/topology"
)

// newCtx builds a vaContext over len(free) VCs in k sub-groups under the
// given partition, every VC admitted: the VCs not free are busy.
func newCtx(free []bool, credits []int32, k int, part alloc.Partition, dim topology.Dim) *vaContext {
	ctx := &vaContext{
		free:      make([]uint64, vcWords(len(free))),
		busy:      make([]uint64, vcWords(len(free))),
		credits:   credits,
		groupMask: groupMasks(alloc.Config{Ports: 1, VCs: len(free), VirtualInputs: k, Partition: part}),
		nextDim:   dim,
		groups:    k,
	}
	for v, f := range free {
		if f {
			ctx.free[v>>6] |= 1 << (uint(v) & 63)
		} else {
			ctx.busy[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return ctx
}

// ctx6x2 builds a vaContext for 6 VCs in 2 contiguous sub-groups of 3.
func ctx6x2(free []bool, credits []int32, dim topology.Dim) *vaContext {
	return newCtx(free, credits, 2, alloc.Contiguous, dim)
}

func TestMaxFreePicksMostCredits(t *testing.T) {
	ctx := ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int32{1, 4, 2, 5, 0, 3},
		topology.DimX,
	)
	if got := PolicyMaxFree.choose(ctx); got != 3 {
		t.Fatalf("maxfree chose %d, want 3 (5 credits)", got)
	}
}

func TestMaxFreeSkipsBusy(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, true, false, false, true, false},
		[]int32{9, 1, 9, 9, 2, 9},
		topology.DimY,
	)
	if got := PolicyMaxFree.choose(ctx); got != 4 {
		t.Fatalf("maxfree chose %d, want 4", got)
	}
}

func TestMaxFreeNoFreeVC(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, false, false, false, false, false},
		[]int32{0, 0, 0, 0, 0, 0},
		topology.DimX,
	)
	if got := PolicyMaxFree.choose(ctx); got != -1 {
		t.Fatalf("choose on all-busy = %d, want -1", got)
	}
}

// Dimension policy: X-bound continuations go to sub-group 0, Y-bound and
// ejecting to the last sub-group.
func TestDimensionGroupPreference(t *testing.T) {
	free := []bool{true, true, true, true, true, true}
	creds := []int32{3, 3, 3, 3, 3, 3}
	ctx := ctx6x2(free, creds, topology.DimX)
	if got := PolicyDimension.choose(ctx); got > 2 {
		t.Fatalf("X continuation assigned VC %d outside sub-group 0", got)
	}
	ctx = ctx6x2(free, creds, topology.DimY)
	if got := PolicyDimension.choose(ctx); got < 3 {
		t.Fatalf("Y continuation assigned VC %d outside sub-group 1", got)
	}
	ctx = ctx6x2(free, creds, topology.DimLocal)
	if got := PolicyDimension.choose(ctx); got < 3 {
		t.Fatalf("ejecting packet assigned VC %d outside sub-group 1", got)
	}
}

// Dimension policy falls back to the other sub-group when the preferred
// one is fully busy.
func TestDimensionFallback(t *testing.T) {
	ctx := ctx6x2(
		[]bool{false, false, false, true, true, true},
		[]int32{0, 0, 0, 2, 5, 1},
		topology.DimX,
	)
	if got := PolicyDimension.choose(ctx); got != 4 {
		t.Fatalf("fallback chose %d, want 4 (most credits in other group)", got)
	}
}

// Balanced policy overrides the dimension preference when the preferred
// sub-group is more heavily occupied, keeping both virtual inputs fed.
func TestBalancedSteersToLighterGroup(t *testing.T) {
	// X-bound packet prefers group 0, but group 0 has 2 busy VCs while
	// group 1 has none: balanced steers to group 1.
	ctx := ctx6x2(
		[]bool{false, false, true, true, true, true},
		[]int32{0, 0, 4, 3, 3, 3},
		topology.DimX,
	)
	if got := PolicyBalanced.choose(ctx); got < 3 {
		t.Fatalf("balanced chose %d in overloaded group 0", got)
	}
	// Equal occupancy: keep the dimension preference.
	ctx = ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int32{3, 3, 3, 3, 3, 3},
		topology.DimX,
	)
	if got := PolicyBalanced.choose(ctx); got > 2 {
		t.Fatalf("balanced abandoned dimension preference without load imbalance: %d", got)
	}
}

// Under the interleaved partition VC v feeds sub-group v mod 2, so
// "steer to sub-group g" must pick among g's members, not among the
// contiguous block [3g, 3g+3).
func TestPoliciesHonourInterleavedPartition(t *testing.T) {
	interleaved := func(free []bool, credits []int32, dim topology.Dim) *vaContext {
		return newCtx(free, credits, 2, alloc.Interleaved, dim)
	}
	// X-bound prefers sub-group 0 = {0, 2, 4}: VC 2 has its most
	// credits, while VC 1 (sub-group 1) leads the block [0, 3).
	ctx := interleaved(
		[]bool{true, true, true, true, true, true},
		[]int32{1, 5, 2, 3, 0, 4},
		topology.DimX,
	)
	for _, p := range []PolicyKind{PolicyDimension, PolicyBalanced} {
		if got := p.choose(ctx); got != 2 {
			t.Errorf("%s chose %d for an X-bound packet, want 2 (sub-group 0's most credits)", p, got)
		}
	}
	// Sub-group 0 holds both busy VCs, so balanced steers to sub-group
	// 1 = {1, 3, 5}: VC 5, not VC 4 (sub-group 0), which leads [3, 6).
	ctx = interleaved(
		[]bool{false, true, false, true, true, true},
		[]int32{0, 1, 0, 2, 9, 3},
		topology.DimX,
	)
	if got := PolicyBalanced.choose(ctx); got != 5 {
		t.Errorf("balanced chose %d, want 5 (sub-group 1's most credits)", got)
	}
}

// With a single sub-group (k=1) all policies behave like maxfree.
func TestPoliciesDegenerateAtKOne(t *testing.T) {
	ctx := newCtx([]bool{true, false, true, true}, []int32{1, 9, 7, 2}, 1, alloc.Contiguous, topology.DimY)
	for _, p := range []PolicyKind{PolicyMaxFree, PolicyDimension, PolicyBalanced} {
		if got := p.choose(ctx); got != 2 {
			t.Errorf("%s chose %d at k=1, want 2", p, got)
		}
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	PolicyKind("bogus").choose(ctx6x2(
		[]bool{true, true, true, true, true, true},
		[]int32{1, 1, 1, 1, 1, 1},
		topology.DimX,
	))
}
