package attack

import (
	"fmt"
	"reflect"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// FuzzHypercallSequence is the native-fuzzing entry point: raw fuzz bytes
// decode into (persona, calls) sequences — the same space Generate explores —
// and every finding the oracle raises fails the run. The sim is
// deterministic, so any crasher the fuzzer saves replays exactly under plain
// `go test` via the seed-corpus mechanism.
func FuzzHypercallSequence(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(Generate(seed).Encode())
	}
	for _, seq := range regressionSequences() {
		f.Add(seq.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, ok := DecodeSequence(data)
		if !ok {
			t.Skip("undecodable input")
		}
		res, err := RunSequence(seq)
		if err != nil {
			t.Fatalf("harness boot: %v", err)
		}
		for _, finding := range res.Findings {
			t.Errorf("%v", finding)
		}
	})
}

// regressionSequences are the minimized reproducers for every hole the
// fuzzer has surfaced so far, kept both here (as fuzz seeds) and encoded in
// testdata/fuzz/ (as the corpus plain `go test` replays). Each rode an hv
// fix; the comments name it.
func regressionSequences() []Sequence {
	return []Sequence{
		// A compromised netback linked a guest to itself (controls() counts
		// self-control), opening IVC to an arbitrary co-tenant. Fixed by the
		// EnforceShardIVC self-link check in LinkShardClient.
		{Persona: PersonaNetBack, Calls: []Call{
			{Op: OpLinkClient, Target: TSelf, Arg: 1},
			{Op: OpGrant, Target: TVictimA},
			{Op: OpMapGrant, Target: TVictimA, Arg: 1},
		}},
		// A compromised netback unlinked its own clients, closing their
		// DependentsOf exposure windows and hiding the compromise interval.
		// Fixed by the matching self-unlink check in UnlinkShardClient.
		{Persona: PersonaNetBack, Calls: []Call{
			{Op: OpUnlinkClient, Target: TSelf, Arg: 1},
			{Op: OpUnlinkClient, Target: TSelf, Arg: 2},
		}},
		// Guest↔guest IVC probes were refused without ticking DeniedCalls,
		// so an adversarial tenant could sweep co-tenants invisibly. Fixed
		// by counting the non-shard branch of ivcAllowed.
		{Persona: PersonaGuest, Calls: []Call{
			{Op: OpGrant, Target: TVictimA},
			{Op: OpEvtchnAlloc, Target: TVictimB},
			{Op: OpMapGrant, Target: TVictimA, Arg: 3},
			{Op: OpEvtchnBind, Target: TVictimB, Arg: 2},
		}},
		// A snapshot-granted shard could re-snapshot itself after
		// compromise, poisoning the image every later microreboot restores.
		// Fixed by making VMSnapshot write-once per domain.
		{Persona: PersonaNetBack, Calls: []Call{
			{Op: OpVMSnapshot, Target: TSelf},
			{Op: OpVMRollback, Target: TSelf},
			{Op: OpVMSnapshot, Target: TSelf, Arg: 9},
		}},
		// Rollback raced against a live microreboot of the same shard: the
		// engine and a hostile builder-persona both drive VMRollback.
		{Persona: PersonaBuilder, Calls: []Call{
			{Op: OpMicroreboot, Target: TSelf},
			{Op: OpVMRollback, Target: TNetBack},
			{Op: OpPause, Target: TNetBack},
			{Op: OpUnpause, Target: TNetBack},
		}},
		// Foreign-DomID storm from a plain guest: every management call must
		// be refused with a counted denial, and nothing may crash the host.
		{Persona: PersonaGuest, Calls: []Call{
			{Op: OpMapForeign, Target: TBogus},
			{Op: OpDestroyDomain, Target: TNetBack},
			{Op: OpControlAll, Target: TSelf},
			{Op: OpDebugOp, Target: TSelf},
			{Op: OpUnmapForeign, Target: TBogus},
		}},
		// Builder implant chain: create a shard, grant it hypercalls, link a
		// victim to it, tear it down. All manifest-covered — the oracle must
		// track the acquired rights without false findings, and destruction
		// must reap the XenStore subtree.
		{Persona: PersonaBuilder, Calls: []Call{
			{Op: OpCreateDomain, Target: TSelf, Arg: 1},
			{Op: OpPermitHypercall, Target: TCreated, Arg: 10},
			{Op: OpLinkClient, Target: TCreated, Arg: 1},
			{Op: OpUnlinkClient, Target: TCreated, Arg: 1},
			{Op: OpDestroyDomain, Target: TCreated},
		}},
		// Toolstack overreach: reparenting a guest under itself is granted,
		// but unlinking a plain guest "shard" used to succeed as a silent
		// no-op with a bogus audit record. Fixed by the non-shard check in
		// UnlinkShardClient.
		{Persona: PersonaToolstack, Calls: []Call{
			{Op: OpSetParentSelf, Target: TVictimA},
			{Op: OpDelegateToSelf, Target: TNetBack},
			{Op: OpGrantFor, Target: TBlkBack, Arg: 7},
			{Op: OpUnlinkClient, Target: TVictimA, Arg: 2},
		}},
	}
}

// TestAttackCorpusReplay replays every regression sequence deterministically
// on every `go test ./...` run — no -fuzz flag needed — so the holes they
// pinned can never silently reopen. The encoded forms are also checked in
// under testdata/fuzz/FuzzHypercallSequence/, which the native fuzzer
// replays through the same oracle.
func TestAttackCorpusReplay(t *testing.T) {
	for i, seq := range regressionSequences() {
		res, err := RunSequence(seq)
		if err != nil {
			t.Fatalf("corpus %d: boot: %v", i, err)
		}
		if res.Attempted == 0 {
			t.Errorf("corpus %d (%v): no calls attempted", i, seq.Persona)
		}
		for _, f := range res.Findings {
			t.Errorf("corpus %d (%v): %v", i, seq.Persona, f)
		}
	}
}

// TestGeneratedSequencesClean is the seeded-generator sweep: the first 64
// seeds must run finding-free against the fixed hypervisor. A new hole in hv
// — or an oracle miscalibration — surfaces here before the fuzzer runs.
func TestGeneratedSequencesClean(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		seq := Generate(seed)
		res, err := RunSequence(seq)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Attempted == 0 {
			t.Errorf("seed %d: generated sequence attempted nothing", seed)
		}
		for _, f := range res.Findings {
			t.Errorf("seed %d (%v): %v", seed, seq.Persona, f)
		}
	}
}

// TestSequenceDeterminism pins the replayability claim: the same seed yields
// byte-identical sequences, and two fresh harnesses running it report
// identical outcomes.
func TestSequenceDeterminism(t *testing.T) {
	seq := Generate(42)
	if !reflect.DeepEqual(seq, Generate(42)) {
		t.Fatal("Generate(42) is not deterministic")
	}
	decoded, ok := DecodeSequence(seq.Encode())
	if !ok || !reflect.DeepEqual(seq, decoded) {
		t.Fatalf("encode/decode roundtrip mismatch:\n got %+v\nwant %+v", decoded, seq)
	}
	a, err := RunSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if a.Attempted != b.Attempted || a.Denied != b.Denied ||
		!reflect.DeepEqual(a.Findings, b.Findings) {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

// TestDecodeSequenceTolerance: arbitrary fuzz bytes must always decode into
// an executable sequence (wrapping, truncation), never panic or reject.
func TestDecodeSequenceTolerance(t *testing.T) {
	if _, ok := DecodeSequence(nil); ok {
		t.Fatal("empty input decoded")
	}
	raw := make([]byte, 1+3*MaxCalls+50)
	for i := range raw {
		raw[i] = byte(251 + i*7)
	}
	seq, ok := DecodeSequence(raw)
	if !ok {
		t.Fatal("long input rejected")
	}
	if len(seq.Calls) != MaxCalls {
		t.Fatalf("calls = %d, want truncation to %d", len(seq.Calls), MaxCalls)
	}
	if seq.Persona >= NumPersonas {
		t.Fatalf("persona %d out of range", seq.Persona)
	}
	for _, c := range seq.Calls {
		if c.Op >= NumOps || c.Target >= NumTargets {
			t.Fatalf("call %v out of range", c)
		}
	}
}

// TestOracleDetectsStockXen is the oracle's sensitivity check: with the Xoar
// IVC policy switched off (stock Xen semantics), the self-link and
// guest-probe reproducers must surface escalations. If this test fails, the
// oracle has gone blind and every green fuzz run is meaningless.
func TestOracleDetectsStockXen(t *testing.T) {
	cases := []Sequence{
		{Persona: PersonaNetBack, Calls: []Call{
			{Op: OpLinkClient, Target: TSelf, Arg: 1},
		}},
		{Persona: PersonaGuest, Calls: []Call{
			{Op: OpGrant, Target: TVictimA},
			{Op: OpEvtchnAlloc, Target: TVictimB},
		}},
	}
	for i, seq := range cases {
		ha, err := NewHarness()
		if err != nil {
			t.Fatal(err)
		}
		ha.H.EnforceShardIVC = false
		res := ha.Run(seq)
		ha.Close()
		escalations := 0
		for _, f := range res.Findings {
			if f.Kind == KindEscalation {
				escalations++
			}
		}
		if escalations == 0 {
			t.Errorf("case %d (%v): oracle raised no escalation against stock-Xen semantics; findings: %v",
				i, seq.Persona, res.Findings)
		}
	}
}

// TestOracleCountsDenialsExactlyOnce is the denial oracle's sensitivity
// check in both directions: a permission-class refusal that leaves
// DeniedCalls alone is a silent denial, and a call that moves it by more
// than its own refusal is a miscounted one.
func TestOracleCountsDenialsExactlyOnce(t *testing.T) {
	cases := []struct {
		name string
		rig  func(ha *Harness)
		seq  Sequence
		kind string
	}{
		{
			// An injected ErrPerm reaches the caller without passing deny.
			name: "uncounted refusal",
			rig: func(ha *Harness) {
				ha.H.Fault = func(op string, caller, target xtypes.DomID) error {
					if op == "domctl_create" {
						return xtypes.ErrPerm
					}
					return nil
				}
			},
			seq:  Sequence{Persona: PersonaBuilder, Calls: []Call{{Op: OpCreateDomain, Target: TSelf}}},
			kind: KindSilentDenial,
		},
		{
			// A teardown hook's refusal is charged to the destroy that ran it.
			name: "hook refusal",
			rig: func(ha *Harness) {
				ha.H.OnDestroy(func(xtypes.DomID) { _ = ha.H.DebugOp(ha.Mallory) })
			},
			seq:  Sequence{Persona: PersonaToolstack, Calls: []Call{{Op: OpDestroyDomain, Target: TVictimA}}},
			kind: KindMiscountedDenial,
		},
	}
	for _, tc := range cases {
		ha, err := NewHarness()
		if err != nil {
			t.Fatal(err)
		}
		tc.rig(ha)
		res := ha.Run(tc.seq)
		ha.Close()
		if len(res.Findings) != 1 || res.Findings[0].Kind != tc.kind {
			t.Errorf("%s: findings = %v, want one %s", tc.name, res.Findings, tc.kind)
		}
	}
}

// TestOracleDetectsAuditFaults is the audit oracle's sensitivity check: a
// record tampered below the verified prefix of the audit log must break
// the next per-call Verify, and a link whose audit record never reaches
// the log is a missing-audit finding.
func TestOracleDetectsAuditFaults(t *testing.T) {
	cases := []struct {
		name string
		rig  func(ha *Harness)
		seq  Sequence
		want []string // every finding, as kind@call
	}{
		{
			// Record 0 was verified after call 0; the tamper lands 5 ms
			// later, between calls 0 and 1.
			name: "tampered record",
			rig: func(ha *Harness) {
				ha.Env.Spawn("tamper", func(p *sim.Proc) {
					p.Sleep(5 * sim.Millisecond)
					ha.Log.Tamper(0, "forged")
				})
			},
			seq: Sequence{Persona: PersonaGuest, Calls: []Call{
				{Op: OpDebugOp, Target: TSelf},
				{Op: OpDebugOp, Target: TSelf},
				{Op: OpDebugOp, Target: TSelf},
			}},
			want: []string{"audit-chain@1", "audit-chain@2", "audit-chain@-1"},
		},
		{
			// The hypervisor's link-shard events never reach the log.
			name: "dropped link record",
			rig: func(ha *Harness) {
				sink := ha.H.Sink
				ha.H.Sink = func(e hv.Event) {
					if e.Kind != "link-shard" {
						sink(e)
					}
				}
			},
			seq:  Sequence{Persona: PersonaToolstack, Calls: []Call{{Op: OpLinkClient, Target: TNetBack, Arg: 1}}},
			want: []string{"missing-audit@0"},
		},
	}
	for _, tc := range cases {
		ha, err := NewHarness()
		if err != nil {
			t.Fatal(err)
		}
		tc.rig(ha)
		res := ha.Run(tc.seq)
		ha.Close()
		var got []string
		for _, f := range res.Findings {
			got = append(got, fmt.Sprintf("%s@%d", f.Kind, f.Index))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: findings = %v, want %v", tc.name, res.Findings, tc.want)
		}
	}
}

// TestMinimizeShrinksReproducer: Minimize must strip the noise calls around
// a failing core while preserving the failure. Run against stock-Xen
// semantics via a harness-level wrapper is not possible (Minimize boots its
// own), so this exercises the pass-through path: a clean sequence minimizes
// to itself.
func TestMinimizeShrinksReproducer(t *testing.T) {
	seq := Generate(7)
	min, err := Minimize(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, seq) {
		t.Fatalf("clean sequence was altered: %+v", min)
	}
}
