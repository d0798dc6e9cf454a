// Package xenstore implements the hierarchical key-value registry at the
// heart of the Xen control plane (§4.4): a tree of small values with
// per-node permissions and a per-domain node quota. The toolstack and the
// Builder register every guest in it, and the split drivers negotiate their
// devices through it.
//
// Following the paper's decomposition (§5.1), the package is split in two:
//
//   - State — the in-memory contents: the tree and its node permissions.
//     Long-lived; the XenStore-State shard hosts exactly this.
//   - Logic — request processing: path resolution, permission checks and
//     the quota. Restartable; the XenStore-Logic shard hosts this, and
//     after every microreboot it reattaches to the same State.
package xenstore

import (
	"fmt"
	"strings"

	"xoar/internal/xtypes"
)

// node is one tree node. Its value shares the writer's string, so neither a
// write nor a read copies it. Its maps stay nil until their first write:
// most nodes are leaves, and most ACLs are empty.
type node struct {
	value    string
	children map[string]*node
	owner    xtypes.DomID
	readACL  map[xtypes.DomID]bool
	writeACL map[xtypes.DomID]bool
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

// State is the XenStore contents: the tree.
type State struct {
	root *node

	// mutations counts applied writes and removals, for tests and stats.
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

// Mutations reports the number of applied writes and removals since
// creation.
func (s *State) Mutations() int { return s.mutations }
