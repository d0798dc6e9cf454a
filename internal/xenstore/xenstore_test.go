package xenstore

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xoar/internal/xtypes"
)

func newLogic() *Logic {
	return NewLogic(NewState())
}

func TestReadWriteBasic(t *testing.T) {
	l := newLogic()
	c := l.Connect(0, true)
	if err := c.Write("/local/domain/1/name", "guest1"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read("/local/domain/1/name")
	if err != nil || v != "guest1" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if _, err := c.Read("/no/such"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("missing read: %v", err)
	}
}

func TestPathValidation(t *testing.T) {
	l := newLogic()
	c := l.Connect(0, true)
	for _, bad := range []string{"", "relative/path", "/a//b", "/trailing/"} {
		if err := c.Write(bad, "x"); !errors.Is(err, xtypes.ErrInvalid) {
			t.Errorf("path %q accepted: %v", bad, err)
		}
	}
}

func TestDirectoryListing(t *testing.T) {
	l := newLogic()
	c := l.Connect(0, true)
	c.Write("/dev/vif/0", "a")
	c.Write("/dev/vif/1", "b")
	c.Write("/dev/vbd/0", "c")
	names, err := c.Directory("/dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "vbd" || names[1] != "vif" {
		t.Fatalf("directory = %v", names)
	}
}

func TestRmRemovesSubtree(t *testing.T) {
	l := newLogic()
	c := l.Connect(0, true)
	c.Write("/a/b/c", "1")
	c.Write("/a/b/d", "2")
	if err := c.Rm("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("/a/b/c"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("subtree survived rm: %v", err)
	}
	if _, err := c.Read("/a"); err != nil {
		t.Fatalf("parent removed: %v", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	l := newLogic()
	priv := l.Connect(0, true)
	guest := l.Connect(5, false)
	other := l.Connect(6, false)

	// Toolstack creates the guest's subtree and hands it over.
	priv.Write("/local/domain/5/name", "guest5")
	if err := priv.SetPerms("/local/domain/5/name", Perms{Owner: 5}); err != nil {
		t.Fatal(err)
	}

	// The owner can read and write its node.
	if _, err := guest.Read("/local/domain/5/name"); err != nil {
		t.Fatalf("owner read: %v", err)
	}
	if err := guest.Write("/local/domain/5/name", "renamed"); err != nil {
		t.Fatalf("owner write: %v", err)
	}

	// A third party can do neither.
	if _, err := other.Read("/local/domain/5/name"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign read: %v", err)
	}
	if err := other.Write("/local/domain/5/name", "pwned"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign write: %v", err)
	}

	// ACL grants work.
	guest.SetPerms("/local/domain/5/name", Perms{Owner: 5, Read: []xtypes.DomID{6}})
	if _, err := other.Read("/local/domain/5/name"); err != nil {
		t.Fatalf("ACL read: %v", err)
	}
	if err := other.Write("/local/domain/5/name", "x"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("ACL write without grant: %v", err)
	}
}

func TestUnprivilegedCannotCreateAtRoot(t *testing.T) {
	l := newLogic()
	guest := l.Connect(5, false)
	if err := guest.Write("/evil", "x"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("root create by guest: %v", err)
	}
}

func TestSetPermsOnlyOwnerOrPrivileged(t *testing.T) {
	l := newLogic()
	priv := l.Connect(0, true)
	guest := l.Connect(5, false)
	priv.Write("/node", "v")
	if err := guest.SetPerms("/node", Perms{Owner: 5}); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("setperms by non-owner: %v", err)
	}
}

func TestPerRequestRestartPolicy(t *testing.T) {
	l := newLogic()
	l.RestartPerRequest = true
	c := l.Connect(0, true)
	for i := 0; i < 5; i++ {
		if err := c.Write("/svc/key", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if l.Restarts() != 5 {
		t.Fatalf("restarts = %d, want one per mutation", l.Restarts())
	}
	// Contents survive every restart.
	if v, err := c.Read("/svc/key"); err != nil || v != "v" {
		t.Fatalf("read = %q, %v", v, err)
	}
	// Rm also triggers a restart.
	if err := c.Rm("/svc/key"); err != nil {
		t.Fatal(err)
	}
	if l.Restarts() != 6 {
		t.Fatalf("restarts after rm = %d", l.Restarts())
	}
}

func TestQuotas(t *testing.T) {
	l := newLogic()
	priv := l.Connect(0, true)
	priv.Write("/guest", "")
	priv.SetPerms("/guest", Perms{Owner: 5})
	g := l.Connect(5, false)

	// The guest owns /guest; fill its quota to one node short.
	for i := 0; i < nodeQuota-2; i++ {
		if err := g.Write(fmt.Sprintf("/guest/n%d", i), "x"); err != nil {
			t.Fatalf("node %d of quota %d: %v", i+2, nodeQuota, err)
		}
	}
	if err := g.Write("/guest/a/b", "x"); !errors.Is(err, xtypes.ErrQuota) {
		t.Fatalf("node quota: %v", err)
	}
	if err := g.Write("/guest/a", "x"); err != nil {
		t.Fatalf("within quota: %v", err)
	}
}

// Disconnect drops the domain's connection, so a dead domain leaves none
// behind.
func TestDisconnectCleansUp(t *testing.T) {
	l := newLogic()
	l.Connect(5, false)
	l.Disconnect(5)
	if _, ok := l.conns[5]; ok {
		t.Fatal("connection survived disconnect")
	}
}

// A domain that loses every node it owned keeps no quota entry, whether its
// subtree was removed or a privileged SetPerms handed its nodes to another
// owner; its quota then counts from zero again.
func TestQuotaCountDroppedWithLastNode(t *testing.T) {
	const k, guest, other = 4, xtypes.DomID(5), xtypes.DomID(6)
	nodes := []string{"/guest", "/guest/a", "/guest/a/b", "/guest/a/b/c"}
	for _, tc := range []struct {
		name string
		lose func(priv *Conn) error
	}{
		{"rm", func(priv *Conn) error { return priv.Rm("/guest") }},
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
			l := newLogic()
			priv := l.Connect(0, true)
			if err := priv.Mkdir("/guest"); err != nil {
				t.Fatal(err)
			}
			if err := priv.SetPerms("/guest", Perms{Owner: guest}); err != nil {
				t.Fatal(err)
			}
			g := l.Connect(guest, false)
			if err := g.Write(nodes[k-1], "x"); err != nil {
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
			// A fresh directory the guest owns holds nodeQuota nodes,
			// itself included.
			if err := priv.Mkdir("/fresh"); err != nil {
				t.Fatal(err)
			}
			if err := priv.SetPerms("/fresh", Perms{Owner: guest}); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < nodeQuota; i++ {
				if err := g.Write(fmt.Sprintf("/fresh/n%d", i), "x"); err != nil {
					t.Fatalf("node %d of %d: %v", i+1, nodeQuota, err)
				}
			}
			if err := g.Write("/fresh/over", "x"); !errors.Is(err, xtypes.ErrQuota) {
				t.Fatalf("node %d of quota %d: %v, want ErrQuota", nodeQuota+1, nodeQuota, err)
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
