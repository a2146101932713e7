package router

import (
	"fmt"
	"math/bits"

	"vix/internal/topology"
)

// PolicyKind selects the output-VC assignment policy used at VC
// allocation time (Section 2.3 of the paper).
type PolicyKind string

// Output-VC assignment policies.
const (
	// PolicyMaxFree is the baseline: assign the free output VC with the
	// most free flit buffers (credits).
	PolicyMaxFree PolicyKind = "maxfree"
	// PolicyDimension assigns packets to the VC sub-group matching the
	// dimension of the output port they will request at the downstream
	// router, so requests for different output ports tend to arrive on
	// different virtual inputs.
	PolicyDimension PolicyKind = "dimension"
	// PolicyBalanced is PolicyDimension with load balancing: when the
	// preferred sub-group is heavily occupied relative to the other, the
	// packet is steered to the lighter sub-group so every virtual input
	// keeps requests to offer. This is the paper's full Section 2.3
	// policy and the default for VIX configurations.
	PolicyBalanced PolicyKind = "balanced"
)

// vaContext carries the information a policy may consult when choosing an
// output VC for a packet leaving through outPort. VC sets are packed VC
// words: bit b of word i stands for downstream VC i*64+b.
type vaContext struct {
	// free holds the downstream VCs that are unallocated and admitted
	// for this packet; busy holds the allocated ones.
	free, busy []uint64
	// credits[v] is the current credit count of downstream VC v (a view
	// into the router's arena segment).
	credits []int32
	// groupMask holds sub-group g's VCs, per the configured partition,
	// at groupMask[g*len(free):].
	groupMask []uint64
	// nextDim is the dimension class of the output port the packet will
	// request at the downstream router (lookahead), or DimLocal when the
	// downstream hop ejects. It is set only for policies that read it
	// (readsNextDim).
	nextDim topology.Dim
	// groups is the number of VC sub-groups (the crossbar's virtual
	// input factor k).
	groups int
}

// readsNextDim reports whether the policy consults vaContext.nextDim with
// groups sub-groups: maxfree never does, and with one sub-group every
// packet prefers sub-group 0.
func (p PolicyKind) readsNextDim(groups int) bool {
	return p != PolicyMaxFree && groups > 1
}

// choose returns the selected downstream VC, or -1 if no free VC exists.
func (p PolicyKind) choose(ctx *vaContext) int {
	switch p {
	case PolicyMaxFree:
		return bestIn(ctx, -1)
	case PolicyDimension:
		g := preferredGroup(ctx)
		if v := bestIn(ctx, g); v >= 0 {
			return v
		}
		return bestIn(ctx, -1)
	case PolicyBalanced:
		g := preferredGroup(ctx)
		// Load balance: if the preferred sub-group already has strictly
		// more busy VCs than the least-loaded sub-group, steer there so
		// all virtual inputs keep requests.
		busyG := busyInGroup(ctx, g)
		min, argmin := busyG, g
		for i := 0; i < ctx.groups; i++ {
			if b := busyInGroup(ctx, i); b < min {
				min, argmin = b, i
			}
		}
		if busyG > min {
			g = argmin
		}
		if v := bestIn(ctx, g); v >= 0 {
			return v
		}
		return bestIn(ctx, -1)
	default:
		panic(fmt.Sprintf("router: unknown VC policy %q", p))
	}
}

// preferredGroup maps the downstream direction onto a sub-group: X-dim
// continuations to group 0, Y-dim and ejection to the last group. With
// k = 1 everything maps to group 0 and the policy degenerates to maxfree.
func preferredGroup(ctx *vaContext) int {
	if ctx.groups == 1 {
		return 0
	}
	switch ctx.nextDim {
	case topology.DimX:
		return 0
	default:
		return ctx.groups - 1
	}
}

// busyInGroup counts the allocated VCs in sub-group g.
func busyInGroup(ctx *vaContext, g int) int {
	n := 0
	for i, w := range ctx.busy {
		n += bits.OnesCount64(w & ctx.groupMask[g*len(ctx.busy)+i])
	}
	return n
}

// bestIn returns the free VC with the most credits in sub-group g (any
// sub-group when g < 0), lowest index first among ties, or -1.
func bestIn(ctx *vaContext, g int) int {
	best, bestCred := -1, int32(-1)
	for i, w := range ctx.free {
		if g >= 0 {
			w &= ctx.groupMask[g*len(ctx.free)+i]
		}
		for ; w != 0; w &= w - 1 {
			v := i<<6 + bits.TrailingZeros64(w)
			if c := ctx.credits[v]; c > bestCred {
				best, bestCred = v, c
			}
		}
	}
	return best
}
