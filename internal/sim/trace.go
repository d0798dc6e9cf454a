package sim

import "fmt"

// TraceEvent describes one scheduler action for the tracing hook.
type TraceEvent struct {
	At Time
	// Kind is "resume" for process resumptions, "callback" for After
	// callbacks, "spawn" and "kill" for lifecycle actions. A wakeup the
	// dispatch loop re-queues on its signal without resuming the process,
	// because the process's Resource.Acquire or Chan.Recv would only wait
	// again, is a "resume" too: the trace is the one the process's own
	// wait loop would give.
	Kind string
	// Proc is the affected process's name ("" for callbacks).
	Proc string
}

func (t TraceEvent) String() string {
	if t.Proc == "" {
		return fmt.Sprintf("%.6fs %s", t.At.Seconds(), t.Kind)
	}
	return fmt.Sprintf("%.6fs %s %s", t.At.Seconds(), t.Kind, t.Proc)
}

// SetTrace installs a scheduler tracing hook, or removes it when fn is nil.
// Tracing exists for debugging model timing (it is how this repository's own
// clock-overrun bug was found); it has no effect on simulation behaviour.
func (e *Env) SetTrace(fn func(TraceEvent)) { e.trace = fn }

// emitTrace reports a scheduler action to the hook, if installed.
func (e *Env) emitTrace(kind, proc string) {
	if e.trace != nil {
		//xoarlint:allow(hotpath) trace sinks are diagnostic instrumentation, never installed in production runs
		e.trace(TraceEvent{At: e.now, Kind: kind, Proc: proc})
	}
}
