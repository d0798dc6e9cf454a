// Package attack is the adversarial scenario suite: a seeded
// hypercall-sequence fuzzer and a CVE-replay harness that drive hostile call
// sequences against a booted Xoar platform and check every outcome against
// the generated capability manifests (§2.3, §6.2.1).
//
// The sim is fully deterministic, so every sequence is a replayable artifact:
// a failing finding carries its encoded byte form, `go test -fuzz` explores
// the same space through FuzzHypercallSequence, and minimized reproducers are
// checked in under testdata/fuzz/ where plain `go test` replays them forever.
//
// The oracle is success-sided and independent of the hypervisor's own
// enforcement code: a call that *succeeds* must be covered by the caller's
// CAPMANIFEST.json role grants plus a relationship model (parent toolstack,
// delegation, linked clients) captured from boot-time state — not by
// hv.controls itself, whose bugs are exactly what the fuzzer hunts. Denials
// are never findings; undenied privilege is.
package attack

import (
	"fmt"
	"math/rand"

	"xoar/internal/capability"
)

// Persona is the compromised identity a sequence executes as (§2.3: the
// paper's attack sources are a hostile guest and each service component an
// attacker may have taken over).
type Persona uint8

const (
	PersonaGuest Persona = iota // adversarial tenant VM ("mallory")
	PersonaNetBack
	PersonaBlkBack
	PersonaBuilder
	PersonaToolstack
	NumPersonas
)

func (p Persona) String() string {
	switch p {
	case PersonaGuest:
		return "guest"
	case PersonaNetBack:
		return "netback"
	case PersonaBlkBack:
		return "blkback"
	case PersonaBuilder:
		return "builder"
	case PersonaToolstack:
		return "toolstack"
	default:
		return fmt.Sprintf("persona(%d)", uint8(p))
	}
}

// Role is the capability-manifest role the persona's grants are read from;
// empty for a plain guest, which holds only the unprivileged set.
func (p Persona) Role() string {
	switch p {
	case PersonaNetBack:
		return capability.RoleNetBack
	case PersonaBlkBack:
		return capability.RoleBlkBack
	case PersonaBuilder:
		return capability.RoleBuilder
	case PersonaToolstack:
		return capability.RoleToolstack
	default:
		return ""
	}
}

// Op enumerates the hostile operations a sequence may issue. Together they
// cover every xtypes.Hyper* call with an hv dispatch entry point (PhysdevOp,
// ProfilingOp and ReadConsoleRing have none to attack), plus XenStore writes
// and a concurrent microreboot to race calls against.
type Op uint8

const (
	OpGrant           Op = iota // Grant a page to the target (IVC policy)
	OpMapGrant                  // map a (possibly stale) grant ref of the target
	OpEvtchnAlloc               // allocate an unbound port toward the target
	OpEvtchnBind                // bind to a guessed remote port on the target
	OpMapForeign                // privileged foreign mapping of target memory
	OpUnmapForeign              // tear down a foreign mapping
	OpCreateDomain              // create a domain (arg bit 0 marks it a shard)
	OpDestroyDomain             // destroy the target
	OpPause                     // pause the target
	OpUnpause                   // unpause the target
	OpSetMaxMem                 // resize the target's reservation
	OpPermitHypercall           // whitelist hypercall(arg) on the target
	OpRevokeHypercall           // revoke hypercall(arg) from the target
	OpControlAll                // grant the target ControlAll
	OpAssignDevice              // seize the first NIC for the target
	OpDelegateToSelf            // delegate the target shard to the persona
	OpSetParentSelf             // reparent the target under the persona
	OpLinkClient                // link guest(arg) as a client of the target shard
	OpUnlinkClient              // unlink guest(arg) from the target shard
	OpPrivilegedFor             // make the persona privileged-for the target
	OpGrantFor                  // forge a grant owned by the target to the persona
	OpVMSnapshot                // (re-)snapshot the persona's own image
	OpVMRollback                // roll the target back to its snapshot
	OpRecoveryBox               // register a recovery box at pfn(arg)
	OpGrantIOPorts              // grant the target the console port range
	OpRouteVIRQ                 // route virq(arg) to the target
	OpBalloon                   // balloon own reservation to arg MB
	OpDebugOp                   // debug-register interface (§6.2.1)
	OpXSWrite                   // write into /local/domain/<target> via XenStore
	OpSelfExit                  // voluntary exit of the persona's domain
	OpMicroreboot               // kick a netback microreboot; later calls race it
	NumOps
)

var opNames = [NumOps]string{
	"grant", "map-grant", "evtchn-alloc", "evtchn-bind", "map-foreign",
	"unmap-foreign", "create-domain", "destroy-domain", "pause", "unpause",
	"set-max-mem", "permit-hypercall", "revoke-hypercall", "control-all",
	"assign-device", "delegate-to-self", "set-parent-self", "link-client",
	"unlink-client", "privileged-for", "grant-for", "vm-snapshot",
	"vm-rollback", "recovery-box", "grant-ioports", "route-virq", "balloon",
	"debug-op", "xs-write", "self-exit", "microreboot",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Target selects the victim of a call symbolically, so sequences stay valid
// across runs even though concrete DomIDs are assigned at boot.
type Target uint8

const (
	TSelf      Target = iota // the persona's own domain
	TVictimA                 // first co-tenant guest
	TVictimB                 // second co-tenant guest
	TNetBack                 // network driver shard
	TBlkBack                 // block driver shard
	TBuilder                 // the Builder (the TCB)
	TToolstack               // guest-management shard
	TCreated                 // most recent domain the sequence created
	TBogus                   // a DomID that has never existed
	NumTargets
)

var targetNames = [NumTargets]string{
	"self", "victimA", "victimB", "netback", "blkback", "builder",
	"toolstack", "created", "bogus",
}

func (t Target) String() string {
	if int(t) < len(targetNames) {
		return targetNames[t]
	}
	return fmt.Sprintf("target(%d)", uint8(t))
}

// Call is one hostile operation: an op, a symbolic target, and a raw argument
// byte whose meaning depends on the op (pfn, grant ref, hypercall number,
// guest selector, memory size...).
type Call struct {
	Op     Op
	Target Target
	Arg    uint8
}

func (c Call) String() string {
	return fmt.Sprintf("%v(%v, arg=%d)", c.Op, c.Target, c.Arg)
}

// Sequence is a full attack scenario: a persona and the calls it issues.
type Sequence struct {
	Persona Persona
	Calls   []Call
}

// MaxCalls bounds decoded sequences so fuzz inputs stay cheap to execute.
const MaxCalls = 48

// Encode serializes the sequence to the byte form the fuzzer mutates:
// persona byte, then (op, target, arg) triples.
func (s Sequence) Encode() []byte {
	out := make([]byte, 0, 1+3*len(s.Calls))
	out = append(out, byte(s.Persona))
	for _, c := range s.Calls {
		out = append(out, byte(c.Op), byte(c.Target), c.Arg)
	}
	return out
}

// DecodeSequence is the inverse of Encode, tolerant of arbitrary fuzz bytes:
// out-of-range personas, ops and targets wrap around, a trailing partial
// triple is dropped, and sequences are truncated to MaxCalls. Only an empty
// input fails to decode.
//
//xoarlint:allow(unused) test support: FuzzHypercallSequence decodes its corpus with it
func DecodeSequence(data []byte) (Sequence, bool) {
	if len(data) == 0 {
		return Sequence{}, false
	}
	s := Sequence{Persona: Persona(data[0] % byte(NumPersonas))}
	rest := data[1:]
	for len(rest) >= 3 && len(s.Calls) < MaxCalls {
		s.Calls = append(s.Calls, Call{
			Op:     Op(rest[0] % byte(NumOps)),
			Target: Target(rest[1] % byte(NumTargets)),
			Arg:    rest[2],
		})
		rest = rest[3:]
	}
	return s, true
}

// opWeights biases the generator toward interesting interleavings: lifecycle
// destruction and self-exit are rare (they end the fun early), microreboots
// common enough to race other calls against.
var opWeights = func() []Op {
	var w []Op
	for op := Op(0); op < NumOps; op++ {
		n := 4
		switch op {
		case OpSelfExit:
			n = 1
		case OpDestroyDomain, OpCreateDomain:
			n = 2
		case OpMicroreboot:
			n = 3
		}
		for i := 0; i < n; i++ {
			w = append(w, op)
		}
	}
	return w
}()

// Generate derives a hostile sequence deterministically from seed: same seed,
// same sequence, on every platform. The generator and the native fuzzer
// explore the same space — FuzzHypercallSequence decodes raw bytes into
// exactly the shape Generate emits.
func Generate(seed int64) Sequence {
	r := rand.New(rand.NewSource(seed))
	s := Sequence{Persona: Persona(r.Intn(int(NumPersonas)))}
	n := 8 + r.Intn(MaxCalls-8)
	for i := 0; i < n; i++ {
		s.Calls = append(s.Calls, Call{
			Op:     opWeights[r.Intn(len(opWeights))],
			Target: Target(r.Intn(int(NumTargets))),
			Arg:    uint8(r.Intn(256)),
		})
	}
	return s
}
