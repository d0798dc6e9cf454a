package seceval

import (
	"xoar/internal/capability"
	"xoar/internal/xtypes"
)

// Hypervisor split analysis — the §7.1 future-work item: "splitting the
// hypervisor into a privileged and non-privileged component, which run in
// different hardware protection rings." Operations like guest page-table
// updates, I/O-port management and trap-and-emulate genuinely need ring-0;
// domain management, profiling and tracing do not. The classification itself
// lives in internal/capability — it is an input to the generated capability
// manifests, and the exhaustiveness test there keeps it total — this file
// computes how much of the surface a split hypervisor would move out of
// ring 0.

// Ring0 marks a hypercall that needs the hardware's most privileged ring.
const Ring0 = capability.Ring0

// HVSplitReport summarizes the split.
type HVSplitReport struct {
	Ring0Calls        []xtypes.Hypercall
	DeprivilegedCalls []xtypes.Hypercall
	// Traffic splits observed hypercall invocations by requirement, when
	// invocation counts are supplied.
	Ring0Traffic        int
	DeprivilegedTraffic int
}

// HVSplit classifies the full hypercall surface and, given observed
// invocation counts (hv.HypercallCount), the runtime traffic each half of a
// split hypervisor would carry.
func HVSplit(counts map[xtypes.Hypercall]int) HVSplitReport {
	var rep HVSplitReport
	for h := xtypes.Hypercall(0); h < xtypes.NumHypercalls; h++ {
		req, ok := capability.RingOf(h)
		if !ok {
			req = Ring0 // unclassified calls stay privileged, conservatively
		}
		if req == Ring0 {
			rep.Ring0Calls = append(rep.Ring0Calls, h)
			rep.Ring0Traffic += counts[h]
		} else {
			rep.DeprivilegedCalls = append(rep.DeprivilegedCalls, h)
			rep.DeprivilegedTraffic += counts[h]
		}
	}
	return rep
}
