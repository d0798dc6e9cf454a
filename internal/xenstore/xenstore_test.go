package xenstore

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

func newLogic() (*sim.Env, *Logic) {
	env := sim.NewEnv(1)
	return env, NewLogic(env, NewState())
}

func TestReadWriteBasic(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	if err := c.Write(TxNone, "/local/domain/1/name", "guest1"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(TxNone, "/local/domain/1/name")
	if err != nil || v != "guest1" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if _, err := c.Read(TxNone, "/no/such"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("missing read: %v", err)
	}
}

func TestPathValidation(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	for _, bad := range []string{"", "relative/path", "/a//b", "/trailing/"} {
		if err := c.Write(TxNone, bad, "x"); !errors.Is(err, xtypes.ErrInvalid) {
			t.Errorf("path %q accepted: %v", bad, err)
		}
	}
}

func TestDirectoryListing(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	c.Write(TxNone, "/dev/vif/0", "a")
	c.Write(TxNone, "/dev/vif/1", "b")
	c.Write(TxNone, "/dev/vbd/0", "c")
	names, err := c.Directory(TxNone, "/dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "vbd" || names[1] != "vif" {
		t.Fatalf("directory = %v", names)
	}
}

func TestRmRemovesSubtree(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	c.Write(TxNone, "/a/b/c", "1")
	c.Write(TxNone, "/a/b/d", "2")
	if err := c.Rm(TxNone, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(TxNone, "/a/b/c"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("subtree survived rm: %v", err)
	}
	if _, err := c.Read(TxNone, "/a"); err != nil {
		t.Fatalf("parent removed: %v", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	_, l := newLogic()
	priv := l.Connect(0, true)
	guest := l.Connect(5, false)
	other := l.Connect(6, false)

	// Toolstack creates the guest's subtree and hands it over.
	priv.Write(TxNone, "/local/domain/5/name", "guest5")
	if err := priv.SetPerms("/local/domain/5/name", Perms{Owner: 5}); err != nil {
		t.Fatal(err)
	}

	// The owner can read and write its node.
	if _, err := guest.Read(TxNone, "/local/domain/5/name"); err != nil {
		t.Fatalf("owner read: %v", err)
	}
	if err := guest.Write(TxNone, "/local/domain/5/name", "renamed"); err != nil {
		t.Fatalf("owner write: %v", err)
	}

	// A third party can do neither.
	if _, err := other.Read(TxNone, "/local/domain/5/name"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign read: %v", err)
	}
	if err := other.Write(TxNone, "/local/domain/5/name", "pwned"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign write: %v", err)
	}

	// ACL grants work.
	guest.SetPerms("/local/domain/5/name", Perms{Owner: 5, Read: []xtypes.DomID{6}})
	if _, err := other.Read(TxNone, "/local/domain/5/name"); err != nil {
		t.Fatalf("ACL read: %v", err)
	}
	if err := other.Write(TxNone, "/local/domain/5/name", "x"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("ACL write without grant: %v", err)
	}
}

func TestUnprivilegedCannotCreateAtRoot(t *testing.T) {
	_, l := newLogic()
	guest := l.Connect(5, false)
	if err := guest.Write(TxNone, "/evil", "x"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("root create by guest: %v", err)
	}
}

func TestSetPermsOnlyOwnerOrPrivileged(t *testing.T) {
	_, l := newLogic()
	priv := l.Connect(0, true)
	guest := l.Connect(5, false)
	priv.Write(TxNone, "/node", "v")
	if err := guest.SetPerms("/node", Perms{Owner: 5}); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("setperms by non-owner: %v", err)
	}
}

func TestWatchFiresOnWriteAndDescendants(t *testing.T) {
	env, l := newLogic()
	c := l.Connect(0, true)
	var events []WatchEvent
	env.Spawn("watcher", func(p *sim.Proc) {
		c.Watch("/dev", "tok")
		// Initial synthetic event.
		ev, _ := c.WaitWatch(p)
		events = append(events, ev)
		for i := 0; i < 2; i++ {
			ev, ok := c.WaitWatch(p)
			if !ok {
				return
			}
			events = append(events, ev)
		}
	})
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		c.Write(TxNone, "/dev/vif/0/state", "1")
		c.Write(TxNone, "/other/path", "x") // must not fire
		c.Rm(TxNone, "/dev/vif")
	})
	env.RunAll()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	if events[1].Path != "/dev/vif/0/state" || events[1].Token != "tok" {
		t.Fatalf("event[1] = %+v", events[1])
	}
	if events[2].Path != "/dev/vif" {
		t.Fatalf("event[2] = %+v", events[2])
	}
}

func TestWatchFiresOnAncestorDeletion(t *testing.T) {
	env, l := newLogic()
	c := l.Connect(0, true)
	c.Write(TxNone, "/a/b/c", "v")
	fired := 0
	env.Spawn("watcher", func(p *sim.Proc) {
		c.Watch("/a/b/c", "t")
		c.WaitWatch(p) // initial
		c.WaitWatch(p) // deletion of /a
		fired++
	})
	env.Spawn("rm", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		c.Rm(TxNone, "/a")
	})
	env.RunAll()
	if fired != 1 {
		t.Fatal("watch did not fire on ancestor deletion")
	}
}

func TestUnwatchStopsEvents(t *testing.T) {
	env, l := newLogic()
	c := l.Connect(0, true)
	env.Spawn("t", func(p *sim.Proc) {
		c.Watch("/x", "t")
		c.Events.Recv(p) // initial
		c.Unwatch("/x", "t")
		c.Write(TxNone, "/x", "v")
		if _, ok := c.Events.TryRecv(); ok {
			t.Error("event after unwatch")
		}
	})
	env.RunAll()
}

func TestTransactionCommit(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	id, err := c.TxStart()
	if err != nil {
		t.Fatal(err)
	}
	c.Write(id, "/vm/1/a", "1")
	c.Write(id, "/vm/1/b", "2")
	// Uncommitted writes invisible outside the transaction...
	if _, err := c.Read(TxNone, "/vm/1/a"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("dirty read: %v", err)
	}
	// ...but visible inside.
	if v, err := c.Read(id, "/vm/1/a"); err != nil || v != "1" {
		t.Fatalf("tx read = %q, %v", v, err)
	}
	if err := c.TxEnd(id, true); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Read(TxNone, "/vm/1/b"); v != "2" {
		t.Fatalf("post-commit read = %q", v)
	}
}

func TestTransactionAbort(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	id, _ := c.TxStart()
	c.Write(id, "/vm/2/a", "1")
	if err := c.TxEnd(id, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(TxNone, "/vm/2/a"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
}

func TestTransactionConflict(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	c.Write(TxNone, "/counter", "0")
	id, _ := c.TxStart()
	if _, err := c.Read(id, "/counter"); err != nil {
		t.Fatal(err)
	}
	// A concurrent committed write invalidates the transaction.
	c.Write(TxNone, "/counter", "7")
	c2, _ := c.TxStart()
	_ = c2
	err := c.TxEnd(id, true)
	if !errors.Is(err, xtypes.ErrAgain) {
		t.Fatalf("conflicting commit: %v", err)
	}
}

func TestTransactionDeleteInTx(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	c.Write(TxNone, "/gone", "v")
	id, _ := c.TxStart()
	c.Rm(id, "/gone")
	if _, err := c.Read(id, "/gone"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("tx read of tx-deleted node: %v", err)
	}
	if err := c.TxEnd(id, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(TxNone, "/gone"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("node survived committed delete: %v", err)
	}
}

func TestLogicRestartAbortsTransactionsKeepsData(t *testing.T) {
	_, l := newLogic()
	c := l.Connect(0, true)
	c.Write(TxNone, "/persist", "yes")
	c.Watch("/persist", "tok")
	id, _ := c.TxStart()
	c.Write(id, "/persist", "tx-write")

	l.Restart()

	// Transaction is gone: operations on it fail with ErrShutdown.
	if err := c.TxEnd(id, true); !errors.Is(err, xtypes.ErrShutdown) {
		t.Fatalf("tx after restart: %v", err)
	}
	// Data survived (it lives in State).
	if v, _ := c.Read(TxNone, "/persist"); v != "yes" {
		t.Fatalf("data lost across Logic restart: %q", v)
	}
	// Watches survived too.
	if l.State().WatchCount(0) != 1 {
		t.Fatal("watch registry lost across Logic restart")
	}
	if l.Restarts() != 1 {
		t.Fatalf("restarts = %d", l.Restarts())
	}
}

func TestPerRequestRestartPolicy(t *testing.T) {
	env := sim.NewEnv(1)
	l := NewLogic(env, NewState())
	l.RestartPerRequest = true
	c := l.Connect(0, true)
	c.Watch("/svc", "tok")
	for i := 0; i < 5; i++ {
		if err := c.Write(TxNone, "/svc/key", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if l.Restarts() != 5 {
		t.Fatalf("restarts = %d, want one per mutation", l.Restarts())
	}
	// Contents and watches survive every restart.
	if v, err := c.Read(TxNone, "/svc/key"); err != nil || v != "v" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if l.State().WatchCount(0) != 1 {
		t.Fatal("watch lost")
	}
	// Rm also triggers a restart.
	if err := c.Rm(TxNone, "/svc/key"); err != nil {
		t.Fatal(err)
	}
	if l.Restarts() != 6 {
		t.Fatalf("restarts after rm = %d", l.Restarts())
	}
}

func TestPerRequestRestartDeferredDuringTransactions(t *testing.T) {
	env := sim.NewEnv(1)
	l := NewLogic(env, NewState())
	l.RestartPerRequest = true
	c := l.Connect(0, true)
	id, err := c.TxStart()
	if err != nil {
		t.Fatal(err)
	}
	// A concurrent non-transactional write must not restart the Logic while
	// the transaction is open — that would abort it spuriously.
	if err := c.Write(TxNone, "/other", "x"); err != nil {
		t.Fatal(err)
	}
	if l.Restarts() != 0 {
		t.Fatal("restarted with a transaction in flight")
	}
	c.Write(id, "/tx/key", "v")
	if err := c.TxEnd(id, true); err != nil {
		t.Fatal(err)
	}
	// The next standalone mutation restarts as usual.
	c.Write(TxNone, "/after", "x")
	if l.Restarts() != 1 {
		t.Fatalf("restarts = %d", l.Restarts())
	}
}

func TestQuotas(t *testing.T) {
	_, l := newLogic()
	l.SetQuota(Quota{MaxNodes: 3, MaxWatches: 1, MaxTransactions: 1})
	priv := l.Connect(0, true)
	priv.Write(TxNone, "/guest", "")
	priv.SetPerms("/guest", Perms{Owner: 5, Write: []xtypes.DomID{5}})
	g := l.Connect(5, false)

	if err := g.Write(TxNone, "/guest/a/b/c", "x"); !errors.Is(err, xtypes.ErrQuota) {
		t.Fatalf("node quota: %v", err)
	}
	if err := g.Write(TxNone, "/guest/a", "x"); err != nil {
		t.Fatalf("within quota: %v", err)
	}

	if err := g.Watch("/guest", "t1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Watch("/guest", "t2"); !errors.Is(err, xtypes.ErrQuota) {
		t.Fatalf("watch quota: %v", err)
	}

	if _, err := g.TxStart(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TxStart(); !errors.Is(err, xtypes.ErrQuota) {
		t.Fatalf("tx quota: %v", err)
	}
}

func TestDisconnectCleansUp(t *testing.T) {
	_, l := newLogic()
	g := l.Connect(5, false)
	priv := l.Connect(0, true)
	priv.Write(TxNone, "/g", "")
	priv.SetPerms("/g", Perms{Owner: 5, Write: []xtypes.DomID{5}, Read: []xtypes.DomID{5}})
	g.Watch("/g", "tok")
	id, _ := g.TxStart()
	l.Disconnect(5)
	if l.State().WatchCount(5) != 0 {
		t.Fatal("watches survived disconnect")
	}
	g2 := l.Connect(5, false)
	if err := g2.TxEnd(id, true); !errors.Is(err, xtypes.ErrShutdown) {
		t.Fatalf("tx survived disconnect: %v", err)
	}
}

func TestForeignTransactionRejected(t *testing.T) {
	_, l := newLogic()
	a := l.Connect(1, true)
	b := l.Connect(2, true)
	id, _ := a.TxStart()
	if _, err := b.Read(id, "/x"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign tx use: %v", err)
	}
}

func TestWaitValue(t *testing.T) {
	env, l := newLogic()
	c := l.Connect(0, true)
	var connectedAt sim.Time
	env.Spawn("backend", func(p *sim.Proc) {
		c.Watch("/fe/state", "s")
		if !c.WaitValue(p, "/fe/state", "connected") {
			t.Error("WaitValue failed")
			return
		}
		connectedAt = p.Now()
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		p.Sleep(3 * sim.Millisecond)
		c.Write(TxNone, "/fe/state", "initializing")
		p.Sleep(3 * sim.Millisecond)
		c.Write(TxNone, "/fe/state", "connected")
	})
	env.RunAll()
	if connectedAt != sim.Time(6*sim.Millisecond) {
		t.Fatalf("connected at %v", connectedAt)
	}
}

func TestWaitValueTimeout(t *testing.T) {
	env, l := newLogic()
	c := l.Connect(0, true)
	var ok bool
	env.Spawn("b", func(p *sim.Proc) {
		c.Watch("/never", "s")
		ok = c.WaitValueTimeout(p, "/never", "x", 5*sim.Millisecond)
	})
	env.RunAll()
	if ok {
		t.Fatal("WaitValueTimeout should have timed out")
	}
}

func TestWatchRespectsReadPermissions(t *testing.T) {
	env, l := newLogic()
	priv := l.Connect(0, true)
	spy := l.Connect(6, false)
	var events []WatchEvent
	env.Spawn("spy", func(p *sim.Proc) {
		// The spy watches the whole /local tree...
		if err := spy.Watch("/local", "spy"); err != nil {
			t.Error(err)
			return
		}
		spy.Events.Recv(p) // initial synthetic event
		for {
			ev, ok := spy.Events.Recv(p)
			if !ok {
				return
			}
			events = append(events, ev)
		}
	})
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		// ...but dom5's private nodes must not leak to it.
		priv.Write(TxNone, "/local/domain/5/secret", "hidden")
		priv.SetPerms("/local/domain/5/secret", Perms{Owner: 5})
		priv.Write(TxNone, "/local/domain/5/secret", "hidden2")
		// World-readable nodes do fire.
		priv.Write(TxNone, "/local/public", "visible")
		priv.SetPerms("/local/public", Perms{Owner: 0, Read: []xtypes.DomID{xtypes.DomIDNone}})
		priv.Write(TxNone, "/local/public", "visible2")
	})
	env.RunFor(sim.Second)
	env.Shutdown()
	for _, ev := range events {
		if ev.Path == "/local/domain/5/secret" {
			t.Fatalf("unreadable path leaked through watch: %v", events)
		}
	}
	sawPublic := false
	for _, ev := range events {
		if ev.Path == "/local/public" {
			sawPublic = true
		}
	}
	if !sawPublic {
		t.Fatalf("readable event suppressed: %v", events)
	}
}

// A domain that loses every node it owned keeps no quota entry, whether its
// subtree was removed or a privileged SetPerms handed its nodes to another
// owner; its quota then counts from zero again.
func TestQuotaCountDroppedWithLastNode(t *testing.T) {
	const k, guest, other = 4, xtypes.DomID(5), xtypes.DomID(6)
	nodes := []string{"/guest/a", "/guest/a/b", "/guest/a/b/c", "/guest/a/b/c/d"}
	for _, tc := range []struct {
		name string
		lose func(priv *Conn) error
	}{
		{"rm", func(priv *Conn) error { return priv.Rm(TxNone, "/guest/a") }},
		{"set-perms", func(priv *Conn) error {
			for _, n := range nodes {
				if err := priv.SetPerms(n, Perms{Owner: other}); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, l := newLogic()
			q := DefaultQuota
			q.MaxNodes = k
			l.SetQuota(q)
			priv := l.Connect(0, true)
			if err := priv.Mkdir(TxNone, "/guest"); err != nil {
				t.Fatal(err)
			}
			if err := priv.SetPerms("/guest", Perms{Owner: 0, Write: []xtypes.DomID{guest}}); err != nil {
				t.Fatal(err)
			}
			g := l.Connect(guest, false)
			if err := g.Write(TxNone, nodes[k-1], "x"); err != nil {
				t.Fatalf("creating %d nodes: %v", k, err)
			}
			if got := l.owned[guest]; got != k {
				t.Fatalf("owned[%v] = %d after creating %d nodes", guest, got, k)
			}
			if err := tc.lose(priv); err != nil {
				t.Fatal(err)
			}
			if n, ok := l.owned[guest]; ok {
				t.Fatalf("owned[%v] = %d kept after losing every node", guest, n)
			}
			if tc.name == "set-perms" && l.owned[other] != k {
				t.Fatalf("owned[%v] = %d, want %d", other, l.owned[other], k)
			}
			for i := 0; i < k; i++ {
				if err := g.Write(TxNone, fmt.Sprintf("/guest/n%d", i), "x"); err != nil {
					t.Fatalf("node %d of %d: %v", i+1, k, err)
				}
			}
			if err := g.Write(TxNone, "/guest/over", "x"); !errors.Is(err, xtypes.ErrQuota) {
				t.Fatalf("node %d of quota %d: %v, want ErrQuota", k+1, k, err)
			}
		})
	}
}

func TestSplitPath(t *testing.T) {
	// A path deeper than the stack buffer spills to the heap intact.
	deep := make([]string, 0, len(pathBuf{})+5)
	for len(deep) < cap(deep) {
		deep = append(deep, fmt.Sprint(len(deep)))
	}
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"/", nil},
		{"/a", []string{"a"}},
		{"/local/domain/7/name", []string{"local", "domain", "7", "name"}},
		{"/" + strings.Join(deep, "/"), deep},
	} {
		var buf pathBuf
		got, err := SplitPath(buf[:0], tc.path)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("SplitPath(%q) = %q, %v; want %q", tc.path, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "a", "//", "/a//b", "/a/"} {
		var buf pathBuf
		if _, err := SplitPath(buf[:0], bad); !errors.Is(err, xtypes.ErrInvalid) {
			t.Errorf("SplitPath(%q) accepted: %v", bad, err)
		}
	}
	// The components land in the caller's stack buffer, not the heap.
	if n := testing.AllocsPerRun(100, func() {
		var buf pathBuf
		if _, err := SplitPath(buf[:0], "/local/domain/7/device/vif/0/state"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SplitPath allocates %v times per call", n)
	}
}
