// Package xenstore implements the hierarchical key-value registry at the
// heart of the Xen control plane (§4.4): a tree of small values with
// per-node permissions, transactions, and a watch mechanism that notifies
// listeners of changes. The toolstack and every split driver use it for
// inter-VM synchronization and device negotiation.
//
// Following the paper's decomposition (§5.1), the package is split in two:
//
//   - State — the in-memory contents: the tree, node permissions, and the
//     watch registry. Long-lived; the XenStore-State shard hosts exactly this.
//   - Logic — request processing: path resolution, permission checks,
//     transactions. Stateless and restartable; the XenStore-Logic shard hosts
//     this, and after every microreboot it reattaches to the same State.
//
// The interface between the two is the narrow, key-value based protocol the
// paper describes; in the platform model it is the StateAccess interface so
// the Xoar profile can interpose a cross-VM latency adapter on it.
package xenstore

import (
	"fmt"
	"strings"

	"xoar/internal/xtypes"
)

// node is one tree node. Its maps stay nil until their first write: most
// nodes are leaves, and most ACLs are empty.
type node struct {
	value    []byte
	children map[string]*node
	owner    xtypes.DomID
	readACL  map[xtypes.DomID]bool
	writeACL map[xtypes.DomID]bool
	gen      uint64 // generation of last mutation, for transaction conflicts
}

func newNode(owner xtypes.DomID) *node {
	return &node{owner: owner}
}

// aclOf returns the ACL granting doms, or nil when doms is empty.
func aclOf(doms []xtypes.DomID) map[xtypes.DomID]bool {
	if len(doms) == 0 {
		return nil
	}
	acl := make(map[xtypes.DomID]bool, len(doms))
	for _, d := range doms {
		acl[d] = true
	}
	return acl
}

// Perms describes a node's access control state.
type Perms struct {
	Owner xtypes.DomID
	Read  []xtypes.DomID
	Write []xtypes.DomID
}

// WatchEvent is delivered to a watcher when a watched subtree changes.
type WatchEvent struct {
	Path  string
	Token string
}

// watch is one registration. Watches live in State so they survive Logic
// microreboots — they are contents, not processing.
type watch struct {
	dom   xtypes.DomID
	path  string
	token string
	// deliver enqueues the event with the owning connection.
	deliver func(WatchEvent)
	// canSee gates delivery by the watcher's read permission on the mutated
	// path, as xenstored does — watches must not leak activity on nodes the
	// watcher cannot read. Nil means unrestricted (privileged connections).
	canSee func(path string) bool
}

// State is the XenStore contents: tree plus watch registry.
type State struct {
	root    *node
	gen     uint64
	watches []*watch

	// mutations counts committed writes, for tests and stats.
	mutations int
}

// NewState returns a State holding only the root node, owned by no one
// (readable by all, writable only by privileged connections).
func NewState() *State {
	s := &State{root: newNode(xtypes.DomIDNone)}
	return s
}

// pathBuf holds a split path's components on the caller's stack; SplitPath
// appends to a slice of it and spills to the heap only past its depth.
type pathBuf [16]string

// SplitPath normalizes and splits a store path, appending its components to
// buf and returning the extended slice. Empty components are rejected; the
// root adds no component.
func SplitPath(buf []string, path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("xenstore: path %q: %w", path, xtypes.ErrInvalid)
	}
	if path == "/" {
		return buf, nil
	}
	for rest, more := path[1:], true; more; {
		var part string
		part, rest, more = strings.Cut(rest, "/")
		if part == "" {
			return nil, fmt.Errorf("xenstore: path %q: %w", path, xtypes.ErrInvalid)
		}
		buf = append(buf, part)
	}
	return buf, nil
}

// lookup walks to the node at parts, returning nil if absent.
func (s *State) lookup(parts []string) *node {
	n := s.root
	for _, p := range parts {
		n = n.children[p]
		if n == nil {
			return nil
		}
	}
	return n
}

// lookupParent returns the parent node of parts and the final component.
func (s *State) lookupParent(parts []string) (*node, string) {
	if len(parts) == 0 {
		return nil, ""
	}
	parent := s.lookup(parts[:len(parts)-1])
	return parent, parts[len(parts)-1]
}

// fireWatches delivers events for a mutation at path. A watch fires when its
// registered path is the mutated path or an ancestor directory of it, and —
// as in real xenstored — when the mutated path is an ancestor of the watched
// path (covers deletion of a whole subtree above the watch point).
func (s *State) fireWatches(path string) {
	for _, w := range s.watches {
		if !pathCovers(w.path, path) && !pathCovers(path, w.path) {
			continue
		}
		if w.canSee != nil && !w.canSee(path) {
			continue
		}
		w.deliver(WatchEvent{Path: path, Token: w.token})
	}
}

// pathCovers reports whether ancestor equals p or is a directory prefix of p.
func pathCovers(ancestor, p string) bool {
	if ancestor == p {
		return true
	}
	if ancestor == "/" {
		return true
	}
	return strings.HasPrefix(p, ancestor+"/")
}

// addWatch registers a watch. Registration is idempotent per (dom, path,
// token) as in xenstored.
func (s *State) addWatch(dom xtypes.DomID, path, token string, deliver func(WatchEvent), canSee func(string) bool) {
	for _, w := range s.watches {
		if w.dom == dom && w.path == path && w.token == token {
			return
		}
	}
	s.watches = append(s.watches, &watch{dom: dom, path: path, token: token, deliver: deliver, canSee: canSee})
}

// removeWatch drops a registration.
func (s *State) removeWatch(dom xtypes.DomID, path, token string) {
	out := s.watches[:0]
	for _, w := range s.watches {
		if !(w.dom == dom && w.path == path && w.token == token) {
			out = append(out, w)
		}
	}
	s.watches = out
}

// removeDomainWatches drops all of a domain's registrations (domain death).
func (s *State) removeDomainWatches(dom xtypes.DomID) {
	out := s.watches[:0]
	for _, w := range s.watches {
		if w.dom != dom {
			out = append(out, w)
		}
	}
	s.watches = out
}

// WatchCount reports live registrations, used by quota enforcement and tests.
func (s *State) WatchCount(dom xtypes.DomID) int {
	n := 0
	for _, w := range s.watches {
		if w.dom == dom {
			n++
		}
	}
	return n
}

// Mutations reports the number of committed writes since creation.
func (s *State) Mutations() int { return s.mutations }
