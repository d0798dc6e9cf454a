package xenstore

import (
	"fmt"
	"sort"
	"strings"

	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

// TxID identifies a transaction. TxNone means "no transaction".
type TxID uint32

// TxNone is the null transaction, used for standalone operations.
const TxNone TxID = 0

// Quota bounds a domain's resource consumption in the store, modelling the
// DoS exposure the paper notes in §4.4: without quotas a single VM can
// monopolize XenStore.
type Quota struct {
	MaxNodes        int // nodes owned by the domain
	MaxWatches      int
	MaxTransactions int
}

// DefaultQuota matches xenstored's defaults in spirit.
var DefaultQuota = Quota{MaxNodes: 1000, MaxWatches: 128, MaxTransactions: 10}

// Conn is one domain's connection to XenStore. In the platform it sits on a
// shared ring; here it carries the caller identity for permission checks and
// the queue watch events are delivered to.
type Conn struct {
	logic      *Logic
	dom        xtypes.DomID
	privileged bool

	// Events receives watch firings for this connection.
	Events *sim.Chan[WatchEvent]
}

// tx is an in-flight transaction: an overlay of uncommitted writes plus the
// set of paths read, for conflict detection at commit.
type tx struct {
	id       TxID
	dom      xtypes.DomID
	startGen uint64
	writes   map[string]*string // nil value = delete
	reads    map[string]bool
}

// Logic is the XenStore request processor. It is deliberately stateless
// beyond in-flight transactions: Restart drops those and the Logic reattaches
// to the same State, which is exactly the XenStore-Logic microreboot.
type Logic struct {
	state  *State
	env    *sim.Env
	conns  map[xtypes.DomID]*Conn
	txs    map[TxID]*tx
	nextTx TxID
	quota  Quota
	owned  map[xtypes.DomID]int // nodes owned per domain, for quota

	// RestartPerRequest microreboots the Logic after every committed
	// mutation, the policy Figure 5.1 assigns to XenStore-Logic. Restarts
	// are deferred while transactions are in flight so clients never see a
	// mid-transaction abort from the policy itself.
	RestartPerRequest bool

	restarts int

	// ops holds one pre-resolved counter per operation kind (nil =
	// telemetry disabled) so the per-request cost is a map lookup plus an
	// atomic add.
	ops map[string]*telemetry.Counter
}

// opKinds is the fixed operation vocabulary for xenstore_requests_total.
// "get-perms" has no Conn method; it stays, always zero, so the exported
// series are those of the full XenStore protocol.
var opKinds = []string{
	"read", "write", "mkdir", "rm", "directory",
	"get-perms", "set-perms", "watch", "unwatch", "tx-start", "tx-end",
}

// SetMetrics attaches a telemetry registry (nil = disabled) and resolves
// the per-operation request counters.
func (l *Logic) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		l.ops = nil
		return
	}
	l.ops = make(map[string]*telemetry.Counter, len(opKinds))
	for _, op := range opKinds {
		l.ops[op] = reg.Counter("xenstore_requests_total", telemetry.L("op", op))
	}
}

// countOp records one request of the given kind.
func (l *Logic) countOp(op string) {
	if l.ops == nil {
		return
	}
	l.ops[op].Inc()
}

// NewLogic returns a Logic attached to state.
func NewLogic(env *sim.Env, state *State) *Logic {
	return &Logic{
		state:  state,
		env:    env,
		conns:  make(map[xtypes.DomID]*Conn),
		txs:    make(map[TxID]*tx),
		nextTx: 1,
		quota:  DefaultQuota,
		owned:  make(map[xtypes.DomID]int),
	}
}

// SetQuota replaces the per-domain quota.
func (l *Logic) SetQuota(q Quota) { l.quota = q }

// State returns the attached State.
func (l *Logic) State() *State { return l.state }

// Connect returns the connection for dom, creating it if needed.
func (l *Logic) Connect(dom xtypes.DomID, privileged bool) *Conn {
	if c, ok := l.conns[dom]; ok {
		c.privileged = privileged
		return c
	}
	c := &Conn{logic: l, dom: dom, privileged: privileged, Events: sim.NewChan[WatchEvent](l.env)}
	l.conns[dom] = c
	return c
}

// Disconnect tears down a domain's connection: its watches and in-flight
// transactions are dropped. Called on domain destruction.
func (l *Logic) Disconnect(dom xtypes.DomID) {
	l.state.removeDomainWatches(dom)
	for id, t := range l.txs {
		if t.dom == dom {
			delete(l.txs, id)
		}
	}
	if c, ok := l.conns[dom]; ok {
		c.Events.Close()
		delete(l.conns, dom)
	}
}

// Restart microreboots the Logic: every in-flight transaction aborts, the
// watch registry and tree (which live in State) survive. Clients see aborted
// transactions as ErrShutdown on their next operation and retry.
func (l *Logic) Restart() {
	clear(l.txs)
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

// maybeAutoRestart applies the per-request restart policy after a committed
// mutation. Because the Logic is stateless apart from in-flight
// transactions, the restart is free of observable effects: the tree and
// watch registry live in State.
func (l *Logic) maybeAutoRestart() {
	if l.RestartPerRequest && len(l.txs) == 0 {
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
	if c.privileged || n.owner == c.dom {
		return true
	}
	return n.writeACL[c.dom] || n.writeACL[xtypes.DomIDNone]
}

// writableAncestor finds the deepest existing node on the path and reports
// whether the connection may create children beneath it.
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

// --- transactions --------------------------------------------------------

// TxStart opens a transaction for the connection.
func (c *Conn) TxStart() (TxID, error) {
	l := c.logic
	l.countOp("tx-start")
	inFlight := 0
	for _, t := range l.txs {
		if t.dom == c.dom {
			inFlight++
		}
	}
	if !c.privileged && inFlight >= l.quota.MaxTransactions {
		return TxNone, fmt.Errorf("xenstore: %v transactions: %w", c.dom, xtypes.ErrQuota)
	}
	id := l.nextTx
	l.nextTx++
	l.txs[id] = &tx{
		id:       id,
		dom:      c.dom,
		startGen: l.state.gen,
		writes:   make(map[string]*string),
		reads:    make(map[string]bool),
	}
	return id, nil
}

func (c *Conn) getTx(id TxID) (*tx, error) {
	if id == TxNone {
		return nil, nil
	}
	t, ok := c.logic.txs[id]
	if !ok {
		// Either a bogus ID or the Logic restarted underneath the client.
		return nil, fmt.Errorf("xenstore: tx %d: %w", id, xtypes.ErrShutdown)
	}
	if t.dom != c.dom {
		return nil, fmt.Errorf("xenstore: tx %d of %v used by %v: %w", id, t.dom, c.dom, xtypes.ErrPerm)
	}
	return t, nil
}

// TxEnd commits (commit=true) or aborts a transaction. Commit fails with
// ErrAgain when any path the transaction touched changed since TxStart; the
// caller retries, as in the real protocol.
func (c *Conn) TxEnd(id TxID, commit bool) error {
	c.logic.countOp("tx-end")
	t, err := c.getTx(id)
	if err != nil {
		return err
	}
	if t == nil {
		return fmt.Errorf("xenstore: txend without tx: %w", xtypes.ErrInvalid)
	}
	l := c.logic
	defer delete(l.txs, id)
	if !commit {
		return nil
	}
	// Conflict detection over everything touched.
	touched := make([]string, 0, len(t.reads)+len(t.writes))
	for p := range t.reads {
		touched = append(touched, p)
	}
	for p := range t.writes {
		touched = append(touched, p)
	}
	var buf pathBuf
	for _, p := range touched {
		parts, err := SplitPath(buf[:0], p)
		if err != nil {
			continue
		}
		if n := l.state.lookup(parts); n != nil && n.gen > t.startGen {
			return fmt.Errorf("xenstore: tx %d conflict on %s: %w", id, p, xtypes.ErrAgain)
		}
	}
	// Apply writes in path order so parents are created before children.
	paths := make([]string, 0, len(t.writes))
	for p := range t.writes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		v := t.writes[p]
		if v == nil {
			if err := c.rmCommitted(p); err != nil && !isNotFound(err) {
				return err
			}
		} else {
			if err := c.writeCommitted(p, *v); err != nil {
				return err
			}
		}
	}
	return nil
}

func isNotFound(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not found")
}

// --- core operations -----------------------------------------------------

// Read returns the value at path.
func (c *Conn) Read(id TxID, path string) (string, error) {
	c.logic.countOp("read")
	t, err := c.getTx(id)
	if err != nil {
		return "", err
	}
	var buf pathBuf
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return "", err
	}
	if t != nil {
		t.reads[path] = true
		if v, ok := t.writes[path]; ok {
			if v == nil {
				return "", fmt.Errorf("xenstore: read %s: %w", path, xtypes.ErrNotFound)
			}
			return *v, nil
		}
	}
	n := c.logic.state.lookup(parts)
	if n == nil {
		return "", fmt.Errorf("xenstore: read %s: %w", path, xtypes.ErrNotFound)
	}
	if !c.canRead(n) {
		return "", fmt.Errorf("xenstore: read %s by %v: %w", path, c.dom, xtypes.ErrPerm)
	}
	return string(n.value), nil
}

// writeCommitted applies a write directly to the tree, firing watches.
func (c *Conn) writeCommitted(path, value string) error {
	l := c.logic
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
	if creating > 0 && !c.privileged && l.owned[c.dom]+creating > l.quota.MaxNodes {
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
	if creating == 0 {
		// Node existed: need write perm on it specifically.
		n = l.state.lookup(parts)
		if !c.canWrite(n) {
			return fmt.Errorf("xenstore: write %s by %v: %w", path, c.dom, xtypes.ErrPerm)
		}
	}
	n.value = []byte(value)
	l.state.gen++
	n.gen = l.state.gen
	l.state.mutations++
	l.state.fireWatches(path)
	return nil
}

// Write stores value at path, creating intermediate nodes as needed.
func (c *Conn) Write(id TxID, path, value string) error {
	c.logic.countOp("write")
	return c.write(id, path, value)
}

// Mkdir creates an empty node at path.
func (c *Conn) Mkdir(id TxID, path string) error {
	c.logic.countOp("mkdir")
	return c.write(id, path, "")
}

func (c *Conn) write(id TxID, path, value string) error {
	t, err := c.getTx(id)
	if err != nil {
		return err
	}
	if t != nil {
		v := value
		t.writes[path] = &v
		return nil
	}
	err = c.writeCommitted(path, value)
	c.logic.maybeAutoRestart()
	return err
}

// rmCommitted removes the subtree at path.
func (c *Conn) rmCommitted(path string) error {
	l := c.logic
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
	l.state.gen++
	parent.gen = l.state.gen
	l.state.mutations++
	l.state.fireWatches(path)
	return nil
}

// Rm removes the subtree at path.
func (c *Conn) Rm(id TxID, path string) error {
	c.logic.countOp("rm")
	t, err := c.getTx(id)
	if err != nil {
		return err
	}
	if t != nil {
		t.writes[path] = nil
		return nil
	}
	err = c.rmCommitted(path)
	c.logic.maybeAutoRestart()
	return err
}

// Directory lists the children of path in sorted order.
func (c *Conn) Directory(id TxID, path string) ([]string, error) {
	c.logic.countOp("directory")
	t, err := c.getTx(id)
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.reads[path] = true
	}
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
	c.logic.countOp("set-perms")
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
	n.writeACL = aclOf(perms.Write)
	return nil
}

// Watch registers for change events on path (and its subtree). Per protocol,
// a synthetic initial event fires immediately on registration.
func (c *Conn) Watch(path, token string) error {
	c.logic.countOp("watch")
	var buf pathBuf
	if _, err := SplitPath(buf[:0], path); err != nil {
		return err
	}
	if !c.privileged && c.logic.state.WatchCount(c.dom) >= c.logic.quota.MaxWatches {
		return fmt.Errorf("xenstore: %v watch quota: %w", c.dom, xtypes.ErrQuota)
	}
	var canSee func(string) bool
	if !c.privileged {
		canSee = func(mutated string) bool {
			var buf pathBuf
			parts, err := SplitPath(buf[:0], mutated)
			if err != nil {
				return false
			}
			n := c.logic.state.lookup(parts)
			if n == nil {
				// Deletions: visible, as the node (and its ACL) are gone;
				// the event carries no contents.
				return true
			}
			return c.canRead(n)
		}
	}
	c.logic.state.addWatch(c.dom, path, token, func(ev WatchEvent) { c.Events.Send(ev) }, canSee)
	c.Events.Send(WatchEvent{Path: path, Token: token})
	return nil
}

// Unwatch removes a registration.
func (c *Conn) Unwatch(path, token string) {
	c.logic.countOp("unwatch")
	c.logic.state.removeWatch(c.dom, path, token)
}

// WaitWatch blocks p until the next watch event arrives on the connection.
func (c *Conn) WaitWatch(p *sim.Proc) (WatchEvent, bool) {
	return c.Events.Recv(p)
}

// WaitValue blocks p until path holds want, consuming watch events for the
// connection. The caller must have registered a watch covering path. This is
// the idiom split drivers use to wait for state transitions.
func (c *Conn) WaitValue(p *sim.Proc, path, want string) bool {
	for {
		if v, err := c.Read(TxNone, path); err == nil && v == want {
			return true
		}
		if _, ok := c.Events.Recv(p); !ok {
			return false
		}
	}
}

// WaitValueTimeout is WaitValue with a deadline.
func (c *Conn) WaitValueTimeout(p *sim.Proc, path, want string, d sim.Duration) bool {
	deadline := c.logic.env.Now().Add(d)
	for {
		if v, err := c.Read(TxNone, path); err == nil && v == want {
			return true
		}
		remain := deadline.Sub(c.logic.env.Now())
		if remain <= 0 {
			return false
		}
		if _, ok := c.Events.RecvTimeout(p, remain); !ok {
			// Timed out or closed; loop once more to re-check the value.
			if v, err := c.Read(TxNone, path); err == nil && v == want {
				return true
			}
			return false
		}
	}
}
