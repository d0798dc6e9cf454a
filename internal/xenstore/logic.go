package xenstore

import (
	"fmt"
	"sort"

	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

// nodeQuota bounds the nodes an unprivileged domain may own, modelling the
// DoS exposure the paper notes in §4.4: without a quota a single VM can
// monopolize XenStore. It is xenstored's default.
const nodeQuota = 1000

// Conn is one domain's connection to XenStore. In the platform it sits on a
// shared ring; here it carries the caller identity for permission checks.
type Conn struct {
	logic      *Logic
	dom        xtypes.DomID
	privileged bool
}

// Logic is the XenStore request processor. The tree lives in State, so a
// Restart, the XenStore-Logic microreboot, reattaches to the same State.
type Logic struct {
	state *State
	conns map[xtypes.DomID]*Conn
	owned map[xtypes.DomID]int // nodes owned per domain, for the quota

	// RestartPerRequest microreboots the Logic after every write, mkdir and
	// rm request, the policy Figure 5.1 assigns to XenStore-Logic.
	RestartPerRequest bool

	restarts int

	// ops holds one pre-resolved counter per op (nil = telemetry
	// disabled), so counting a request is an array index plus an atomic
	// add.
	ops [numOps]*telemetry.Counter
}

// op is a kind of request a Conn serves, the op label of
// xenstore_requests_total.
type op uint8

const (
	opRead op = iota
	opWrite
	opMkdir
	opRm
	opDirectory
	opSetPerms
	numOps
)

// opNames label each op's counter.
var opNames = [numOps]string{"read", "write", "mkdir", "rm", "directory", "set-perms"}

// unservedOps complete the full XenStore protocol's vocabulary: the kinds
// with no Conn method keep their series, always zero, so the exported
// series do not depend on which requests the platform makes.
var unservedOps = []string{"get-perms", "watch", "unwatch", "tx-start", "tx-end"}

// SetMetrics attaches a telemetry registry (nil = disabled) and resolves
// the per-operation request counters.
func (l *Logic) SetMetrics(reg *telemetry.Registry) {
	for o, name := range opNames {
		l.ops[o] = reg.Counter("xenstore_requests_total", telemetry.L("op", name))
	}
	for _, name := range unservedOps {
		reg.Counter("xenstore_requests_total", telemetry.L("op", name))
	}
}

// countOp records one request of kind o.
func (l *Logic) countOp(o op) { l.ops[o].Inc() }

// NewLogic returns a Logic attached to state.
func NewLogic(state *State) *Logic {
	return &Logic{
		state: state,
		conns: make(map[xtypes.DomID]*Conn),
		owned: make(map[xtypes.DomID]int),
	}
}

// Connect returns the connection for dom, creating it if needed.
func (l *Logic) Connect(dom xtypes.DomID, privileged bool) *Conn {
	if c, ok := l.conns[dom]; ok {
		c.privileged = privileged
		return c
	}
	c := &Conn{logic: l, dom: dom, privileged: privileged}
	l.conns[dom] = c
	return c
}

// Disconnect drops a domain's connection. Called on domain destruction.
func (l *Logic) Disconnect(dom xtypes.DomID) {
	delete(l.conns, dom)
}

// Restart microreboots the Logic. The tree lives in State and survives it.
func (l *Logic) Restart() {
	l.restarts++
}

// disown drops one node from dom's quota count. A count that reaches zero is
// deleted, so a domain that no longer owns a node leaves no entry behind.
func (l *Logic) disown(dom xtypes.DomID) {
	if n := l.owned[dom] - 1; n != 0 {
		l.owned[dom] = n
	} else {
		delete(l.owned, dom)
	}
}

// Restarts reports how many times the Logic has microrebooted.
func (l *Logic) Restarts() int { return l.restarts }

// maybeAutoRestart applies the per-request restart policy after a mutation
// request.
func (l *Logic) maybeAutoRestart() {
	if l.RestartPerRequest {
		l.Restart()
	}
}

// --- permission checks -------------------------------------------------

func (c *Conn) canRead(n *node) bool {
	if c.privileged || n.owner == c.dom {
		return true
	}
	return n.readACL[c.dom] || n.readACL[xtypes.DomIDNone]
}

func (c *Conn) canWrite(n *node) bool {
	return c.privileged || n.owner == c.dom
}

// writableAncestor finds the deepest existing node on the path and reports
// whether the connection may write it: create children beneath it or, when
// it is the node at the path itself, replace its value.
func (c *Conn) writableAncestor(parts []string) (*node, int, bool) {
	n := c.logic.state.root
	depth := 0
	for _, p := range parts {
		next := n.children[p]
		if next == nil {
			break
		}
		n = next
		depth++
	}
	return n, depth, c.canWrite(n)
}

// --- operations ----------------------------------------------------------

// Read returns the value at path.
func (c *Conn) Read(path string) (string, error) {
	c.logic.countOp(opRead)
	var buf pathBuf
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return "", err
	}
	n := c.logic.state.lookup(parts)
	if n == nil {
		return "", fmt.Errorf("xenstore: read %s: %w", path, xtypes.ErrNotFound)
	}
	if !c.canRead(n) {
		return "", fmt.Errorf("xenstore: read %s by %v: %w", path, c.dom, xtypes.ErrPerm)
	}
	return n.value, nil
}

// Write stores value at path, creating intermediate nodes as needed.
func (c *Conn) Write(path, value string) error {
	c.logic.countOp(opWrite)
	return c.write(path, value)
}

// Mkdir creates an empty node at path.
func (c *Conn) Mkdir(path string) error {
	c.logic.countOp(opMkdir)
	return c.write(path, "")
}

// write stores value at path and then applies the restart policy, whether
// or not the write succeeded.
func (c *Conn) write(path, value string) error {
	l := c.logic
	defer l.maybeAutoRestart()
	var buf pathBuf
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("xenstore: write to root: %w", xtypes.ErrInvalid)
	}
	anc, depth, ok := c.writableAncestor(parts)
	if !ok {
		return fmt.Errorf("xenstore: write %s by %v: %w", path, c.dom, xtypes.ErrPerm)
	}
	// Creating (len(parts)-depth) nodes; enforce the ownership quota.
	creating := len(parts) - depth
	if creating > 0 && !c.privileged && l.owned[c.dom]+creating > nodeQuota {
		return fmt.Errorf("xenstore: %v node quota: %w", c.dom, xtypes.ErrQuota)
	}
	n := anc
	for _, p := range parts[depth:] {
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		child := newNode(c.dom)
		n.children[p] = child
		n = child
		l.owned[c.dom]++
	}
	n.value = value
	l.state.mutations++
	return nil
}

// Rm removes the subtree at path.
func (c *Conn) Rm(path string) error {
	l := c.logic
	l.countOp(opRm)
	defer l.maybeAutoRestart()
	var buf pathBuf
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("xenstore: rm of root: %w", xtypes.ErrInvalid)
	}
	parent, leaf := l.state.lookupParent(parts)
	if parent == nil || parent.children[leaf] == nil {
		return fmt.Errorf("xenstore: rm %s: %w", path, xtypes.ErrNotFound)
	}
	target := parent.children[leaf]
	if !c.canWrite(target) && !c.canWrite(parent) {
		return fmt.Errorf("xenstore: rm %s by %v: %w", path, c.dom, xtypes.ErrPerm)
	}
	// Account owned nodes of the removed subtree.
	var countOwned func(n *node)
	countOwned = func(n *node) {
		l.disown(n.owner)
		for _, ch := range n.children {
			countOwned(ch)
		}
	}
	countOwned(target)
	delete(parent.children, leaf)
	l.state.mutations++
	return nil
}

// Directory lists the children of path in sorted order.
func (c *Conn) Directory(path string) ([]string, error) {
	c.logic.countOp(opDirectory)
	var buf pathBuf
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return nil, err
	}
	n := c.logic.state.lookup(parts)
	if n == nil {
		return nil, fmt.Errorf("xenstore: directory %s: %w", path, xtypes.ErrNotFound)
	}
	if !c.canRead(n) {
		return nil, fmt.Errorf("xenstore: directory %s by %v: %w", path, c.dom, xtypes.ErrPerm)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// SetPerms replaces the permissions of the node at path. Only the owner or a
// privileged connection may do so.
func (c *Conn) SetPerms(path string, perms Perms) error {
	c.logic.countOp(opSetPerms)
	var buf pathBuf
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return err
	}
	n := c.logic.state.lookup(parts)
	if n == nil {
		return fmt.Errorf("xenstore: setperms %s: %w", path, xtypes.ErrNotFound)
	}
	if !c.privileged && n.owner != c.dom {
		return fmt.Errorf("xenstore: setperms %s by %v: %w", path, c.dom, xtypes.ErrPerm)
	}
	if n.owner != perms.Owner {
		c.logic.disown(n.owner)
		c.logic.owned[perms.Owner]++
	}
	n.owner = perms.Owner
	n.readACL = aclOf(perms.Read)
	return nil
}
