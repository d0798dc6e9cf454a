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

// Entry is one grant-table entry: owner shares pfn with grantee.
type Entry struct {
	Owner    xtypes.DomID
	Grantee  xtypes.DomID
	PFN      xtypes.PFN
	ReadOnly bool

	active  int // live mappings through this entry
	revoked bool
	copies  int // completed grant-copy operations, for the audit trail
}

// Active reports the number of live mappings of the entry.
func (e *Entry) Active() int { return e.active }

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
	dt.entries[ref] = &Entry{Owner: owner, Grantee: grantee, PFN: pfn, ReadOnly: readOnly}
	return ref, nil
}

// Mapping is a live grant mapping held by a grantee.
type Mapping struct {
	table *Table
	entry *Entry
	Ref   xtypes.GrantRef
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
	return &Mapping{table: t, entry: e, Ref: ref}, nil
}

// Copy performs a grant-copy: caller moves up to one page of data through the
// entry without establishing a mapping. direction write=true means caller
// writes into the granted page.
func (t *Table) Copy(caller, owner xtypes.DomID, ref xtypes.GrantRef, write bool) error {
	e, err := t.lookup(owner, ref)
	if err != nil {
		return err
	}
	if e.Grantee != caller && e.Owner != caller {
		return fmt.Errorf("grant: copy by %v of %v ref %d: %w", caller, owner, ref, xtypes.ErrPerm)
	}
	if write && e.ReadOnly && caller != e.Owner {
		return fmt.Errorf("grant: write copy through ro grant: %w", xtypes.ErrPerm)
	}
	e.copies++
	return nil
}

// EndAccess revokes a grant. It fails with ErrInUse while mappings are live,
// matching gnttab_end_foreign_access semantics.
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

// GranteesOf lists domains that currently hold grants from owner.
func (t *Table) GranteesOf(owner xtypes.DomID) []xtypes.DomID {
	dt, ok := t.domains[owner]
	if !ok {
		return nil
	}
	seen := make(map[xtypes.DomID]bool)
	var out []xtypes.DomID
	for _, e := range dt.entries {
		if !e.revoked && !seen[e.Grantee] {
			seen[e.Grantee] = true
			out = append(out, e.Grantee)
		}
	}
	return out
}

// ActiveEntries counts non-revoked entries owned by id.
func (t *Table) ActiveEntries(id xtypes.DomID) int {
	dt, ok := t.domains[id]
	if !ok {
		return 0
	}
	n := 0
	for _, e := range dt.entries {
		if !e.revoked {
			n++
		}
	}
	return n
}
