package audit

import (
	"bytes"
	"strings"
	"testing"

	"xoar/internal/sim"
)

func s(sec int) sim.Time { return sim.Time(sec) * sim.Time(sim.Second) }

func TestHashChainVerify(t *testing.T) {
	l := NewLog()
	l.Append(s(1), "create", 1, "netback")
	l.Append(s(2), "link-shard", 1, "dom5")
	l.Append(s(3), "destroy", 5, "done")
	if got := l.Verify(); got != -1 {
		t.Fatalf("fresh log corrupt at %d", got)
	}
	l.Tamper(1, "dom6")
	if got := l.Verify(); got != 1 {
		t.Fatalf("tamper detected at %d, want 1", got)
	}
}

func TestDependentsOfWindow(t *testing.T) {
	l := NewLog()
	const shard = 2
	l.Append(s(0), "create", shard, "netback")
	l.Append(s(10), "link-shard", shard, "dom5")
	l.Append(s(20), "link-shard", shard, "dom6")
	l.Append(s(30), "destroy", 5, "gone") // closes dom5's window
	l.Append(s(40), "link-shard", shard, "dom7")

	// Window [32,35]: only dom6 (open) — dom5 closed at 30, dom7 starts at 40.
	got := l.DependentsOf(shard, s(32), s(35))
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("dependents[32,35] = %v", got)
	}
	// Window [0,100]: everyone.
	got = l.DependentsOf(shard, s(0), s(100))
	if len(got) != 3 {
		t.Fatalf("dependents[0,100] = %v", got)
	}
	// Window [25,29]: dom5 and dom6.
	got = l.DependentsOf(shard, s(25), s(29))
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("dependents[25,29] = %v", got)
	}
}

func TestUnlinkClosesWindow(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(10), "unlink-shard", 2, "dom5")
	if got := l.DependentsOf(2, s(11), s(20)); len(got) != 0 {
		t.Fatalf("dependents after unlink = %v", got)
	}
	if got := l.DependentsOf(2, s(5), s(20)); len(got) != 1 {
		t.Fatalf("dependents across unlink = %v", got)
	}
}

func TestShardDestroyClosesAll(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(1), "link-shard", 2, "dom6")
	l.Append(s(5), "destroy", 2, "restart")
	if got := l.DependentsOf(2, s(6), s(10)); len(got) != 0 {
		t.Fatalf("dependents after shard destroy = %v", got)
	}
}

func TestDotExport(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(1), "link-shard", 2, "dom5") // duplicate edge collapsed
	dot := l.Dot()
	if strings.Count(dot, "->") != 1 {
		t.Fatalf("dot = %q", dot)
	}
	if !strings.Contains(dot, `"dom2" -> "dom5"`) {
		t.Fatalf("dot = %q", dot)
	}
}

func TestKindCount(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "rollback", 2, "")
	l.Append(s(1), "rollback", 2, "")
	if l.KindCount("rollback") != 2 || l.KindCount("create") != 0 {
		t.Fatal("kind counts wrong")
	}
}

func TestSaveLoadPreservesChain(t *testing.T) {
	l := NewLog()
	l.Append(s(1), "create", 1, "netback")
	l.Append(s(2), "link-shard", 1, "dom5")
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, bad, err := LoadLog(&buf)
	if err != nil || bad != -1 {
		t.Fatalf("load: %v (bad=%d)", err, bad)
	}
	if restored.Len() != 2 || restored.Verify() != -1 {
		t.Fatal("restored log broken")
	}
	// Forensic queries work on the restored copy.
	if deps := restored.DependentsOf(1, s(0), s(10)); len(deps) != 1 || deps[0] != 5 {
		t.Fatalf("dependents on restored log = %v", deps)
	}
}

func TestLoadRejectsTamperedImage(t *testing.T) {
	l := NewLog()
	l.Append(s(1), "create", 1, "x")
	l.Append(s(2), "destroy", 1, "y")
	l.Tamper(0, "forged")
	var buf bytes.Buffer
	l.Save(&buf)
	if _, bad, err := LoadLog(&buf); err == nil || bad != 0 {
		t.Fatalf("tampered image accepted: bad=%d err=%v", bad, err)
	}
	if _, _, err := LoadLog(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
