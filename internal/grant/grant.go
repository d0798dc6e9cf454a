// Package grant implements Xen-style grant tables (§4.3): page-granularity,
// capability-like sharing of memory between specific, possibly unprivileged
// domains. A domain exports one of its own pages to a named grantee; the
// grantee maps or copies through the grant reference, and every use is
// audited against the table by the hypervisor.
//
// Grant tables are the mechanism Xoar uses to deprivilege XenStore and the
// Console Manager (§5.6): instead of Dom0-style forcible foreign mapping,
// the Builder pre-creates grant entries for the shared rings so these
// services run with no special privilege at all.
package grant

import (
	"fmt"

	"xoar/internal/xtypes"
)

// Entry is one grant-table entry: its owner shares pfn with grantee.
type Entry struct {
	Grantee  xtypes.DomID
	PFN      xtypes.PFN
	ReadOnly bool

	active  int // live mappings through this entry
	revoked bool
}

type domainTable struct {
	entries map[xtypes.GrantRef]*Entry
	nextRef xtypes.GrantRef
}

// Table is the system-wide grant state, owned by the hypervisor.
type Table struct {
	domains map[xtypes.DomID]*domainTable
}

// NewTable returns an empty grant table.
func NewTable() *Table {
	return &Table{domains: make(map[xtypes.DomID]*domainTable)}
}

// AddDomain registers a domain. Called at domain creation.
func (t *Table) AddDomain(id xtypes.DomID) {
	if _, ok := t.domains[id]; !ok {
		t.domains[id] = &domainTable{entries: make(map[xtypes.GrantRef]*Entry), nextRef: 1}
	}
}

// RemoveDomain drops a domain's table. Any mappings through its entries are
// implicitly dead (the memory is gone); mappers discover this on next use.
func (t *Table) RemoveDomain(id xtypes.DomID) {
	delete(t.domains, id)
}

func (t *Table) domain(id xtypes.DomID) (*domainTable, error) {
	dt, ok := t.domains[id]
	if !ok {
		return nil, fmt.Errorf("grant: %v: %w", id, xtypes.ErrNoDomain)
	}
	return dt, nil
}

func (t *Table) lookup(owner xtypes.DomID, ref xtypes.GrantRef) (*Entry, error) {
	dt, err := t.domain(owner)
	if err != nil {
		return nil, err
	}
	e, ok := dt.entries[ref]
	if !ok || e.revoked {
		return nil, fmt.Errorf("grant: %v ref %d: %w", owner, ref, xtypes.ErrBadGrant)
	}
	return e, nil
}

// Grant exports owner's page pfn to grantee and returns the new reference.
// This corresponds to gnttab_grant_foreign_access.
func (t *Table) Grant(owner, grantee xtypes.DomID, pfn xtypes.PFN, readOnly bool) (xtypes.GrantRef, error) {
	dt, err := t.domain(owner)
	if err != nil {
		return xtypes.GrantRefInvalid, err
	}
	ref := dt.nextRef
	dt.nextRef++
	dt.entries[ref] = &Entry{Grantee: grantee, PFN: pfn, ReadOnly: readOnly}
	return ref, nil
}

// Mapping is a live grant mapping held by a grantee.
type Mapping struct {
	entry *Entry
	ended bool
}

// Entry returns the grant entry backing the mapping.
func (m *Mapping) Entry() *Entry { return m.entry }

// Unmap releases the mapping.
func (m *Mapping) Unmap() {
	if m.ended {
		return
	}
	m.ended = true
	m.entry.active--
}

// Map validates that mapper is the designated grantee of (owner, ref) and
// records a live mapping. Mapping for write through a read-only grant fails.
func (t *Table) Map(mapper, owner xtypes.DomID, ref xtypes.GrantRef, write bool) (*Mapping, error) {
	e, err := t.lookup(owner, ref)
	if err != nil {
		return nil, err
	}
	if e.Grantee != mapper {
		return nil, fmt.Errorf("grant: map by %v of %v ref %d (grantee %v): %w", mapper, owner, ref, e.Grantee, xtypes.ErrPerm)
	}
	if write && e.ReadOnly {
		return nil, fmt.Errorf("grant: rw map of ro grant %v ref %d: %w", owner, ref, xtypes.ErrPerm)
	}
	e.active++
	return &Mapping{entry: e}, nil
}

// EndAccess revokes a grant. It fails with ErrInUse while mappings are live,
// matching gnttab_end_foreign_access semantics.
//
//xoarlint:allow(unused) ROADMAP item 12 ends each frontend's ring grants with it
func (t *Table) EndAccess(owner xtypes.DomID, ref xtypes.GrantRef) error {
	e, err := t.lookup(owner, ref)
	if err != nil {
		return err
	}
	if e.active > 0 {
		return fmt.Errorf("grant: end access %v ref %d with %d live mappings: %w", owner, ref, e.active, xtypes.ErrInUse)
	}
	e.revoked = true
	return nil
}

// GrantsBetween counts non-revoked entries owner has extended to grantee.
// The audit log and security evaluation use this to weigh sharing edges.
//
//xoarlint:allow(unused) ROADMAP item 6's teardown post-condition checks grant entries with it
func (t *Table) GrantsBetween(owner, grantee xtypes.DomID) int {
	dt, ok := t.domains[owner]
	if !ok {
		return 0
	}
	n := 0
	for _, e := range dt.entries {
		if !e.revoked && e.Grantee == grantee {
			n++
		}
	}
	return n
}
