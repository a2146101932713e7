package router

import "vix/internal/alloc"

// The tick phases, exported to the external test package for the
// per-phase layer microbenchmarks.

// AllocateVCs runs the VC allocation phase of one tick.
func (r *Router) AllocateVCs() { r.allocateVCs() }

// BuildRequests runs the request-build phase of one tick.
func (r *Router) BuildRequests() *alloc.RequestSet { return r.buildRequests() }
