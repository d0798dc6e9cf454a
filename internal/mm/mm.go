// Package mm models machine memory for the platform: page ownership, foreign
// mappings, copy-on-write snapshots and recovery-box regions.
//
// The model tracks real ownership and mapping state — the privilege decisions
// the paper is about — while page *contents* are materialized lazily, so
// domains with hundreds of MB of reservation cost almost nothing until a page
// is actually written.
//
// Snapshots implement the mechanism of §3.3: a lightweight copy-on-write
// image of a domain taken after boot-and-initialize, to which the domain can
// later be rolled back. A registered recovery box (Baker & Sullivan's term,
// adopted by the paper) is the one region whose contents survive rollback.
package mm

import (
	"fmt"

	"xoar/internal/xtypes"
)

// Region is a contiguous page range [Start, Start+Count) in a domain's
// pseudo-physical space.
type Region struct {
	Start xtypes.PFN
	Count int
}

// RegionOf constructs a region from a start frame and page count.
func RegionOf(start xtypes.PFN, count int) Region { return Region{Start: start, Count: count} }

// Contains reports whether pfn falls inside the region.
func (r Region) Contains(pfn xtypes.PFN) bool {
	return pfn >= r.Start && pfn < r.Start+xtypes.PFN(r.Count)
}

// page is a single frame. Content is nil until first written.
type page struct {
	content []byte
	// sharedKey is the content hash while the frame participates in
	// same-page sharing; the zero value means unshared.
	sharedKey [32]byte
	// dirtySinceSnap marks pages written after the last snapshot; the number
	// of such pages drives the rollback cost model.
	dirtySinceSnap bool
}

// DomainMem is one domain's memory reservation.
type DomainMem struct {
	mgr      *Manager
	id       xtypes.DomID
	maxPages int
	pages    map[xtypes.PFN]*page

	snapshot  *Snapshot
	recovery  []Region
	snapEpoch int // increments on every rollback

	// foreignMappings counts pages of this domain currently mapped by others,
	// keyed by mapper. Destroying a domain with live mappings is refused,
	// matching Xen's reference counting.
	foreignMappings map[xtypes.DomID]int
}

// Snapshot is a point-in-time image of a domain's pages.
type Snapshot struct {
	takenPages int
	contents   map[xtypes.PFN][]byte
}

// Pages reports the number of pages captured in the snapshot.
func (s *Snapshot) Pages() int { return s.takenPages }

// Manager owns all machine memory and every domain reservation.
type Manager struct {
	totalPages int
	freePages  int
	domains    map[xtypes.DomID]*DomainMem

	// mappings tracks every live foreign mapping for audit and teardown.
	mappings map[mappingKey]int

	// Same-page-sharing accounting (dedup.go).
	dedupSavedPages int
	cowBreaks       int
}

type mappingKey struct {
	mapper xtypes.DomID
	target xtypes.DomID
}

// NewManager returns a manager with totalMB megabytes of machine memory.
func NewManager(totalMB int) *Manager {
	return &Manager{
		totalPages: totalMB * (1 << 20) / xtypes.PageSize,
		freePages:  totalMB * (1 << 20) / xtypes.PageSize,
		domains:    make(map[xtypes.DomID]*DomainMem),
		mappings:   make(map[mappingKey]int),
	}
}

// FreeMB reports unreserved machine memory.
func (m *Manager) FreeMB() int { return m.freePages * xtypes.PageSize / (1 << 20) }

// CreateDomain reserves memMB megabytes for a new domain.
func (m *Manager) CreateDomain(id xtypes.DomID, memMB int) (*DomainMem, error) {
	if _, ok := m.domains[id]; ok {
		return nil, fmt.Errorf("mm: domain %v: %w", id, xtypes.ErrExists)
	}
	pages := memMB * (1 << 20) / xtypes.PageSize
	if pages > m.freePages {
		return nil, fmt.Errorf("mm: %dMB for %v (free %dMB): %w", memMB, id, m.FreeMB(), xtypes.ErrNoMem)
	}
	m.freePages -= pages
	dm := &DomainMem{
		mgr:             m,
		id:              id,
		maxPages:        pages,
		pages:           make(map[xtypes.PFN]*page),
		foreignMappings: make(map[xtypes.DomID]int),
	}
	m.domains[id] = dm
	return dm, nil
}

// DestroyDomain releases a domain's reservation. It fails with ErrInUse while
// other domains hold live mappings of its pages.
func (m *Manager) DestroyDomain(id xtypes.DomID) error {
	dm, ok := m.domains[id]
	if !ok {
		return fmt.Errorf("mm: destroy %v: %w", id, xtypes.ErrNoDomain)
	}
	for mapper, n := range dm.foreignMappings {
		if n > 0 {
			return fmt.Errorf("mm: destroy %v: %d pages mapped by %v: %w", id, n, mapper, xtypes.ErrInUse)
		}
	}
	// Tear down this domain's outgoing mappings.
	for key := range m.mappings {
		if key.mapper == id {
			if target, ok := m.domains[key.target]; ok {
				target.foreignMappings[id] = 0
			}
			delete(m.mappings, key)
		}
	}
	m.freePages += dm.maxPages
	delete(m.domains, id)
	return nil
}

// ForceReleaseMappings tears down every mapping to or from id. The hypervisor
// uses this when destroying a domain: mappers of a dying domain lose their
// mappings (they observe faults on next access), and the dying domain's own
// mappings are released.
func (m *Manager) ForceReleaseMappings(id xtypes.DomID) {
	for key, n := range m.mappings {
		if key.mapper != id && key.target != id {
			continue
		}
		if n > 0 {
			if target, ok := m.domains[key.target]; ok {
				target.foreignMappings[key.mapper] = 0
			}
		}
		delete(m.mappings, key)
	}
}

// Domain returns the reservation for id.
func (m *Manager) Domain(id xtypes.DomID) (*DomainMem, error) {
	dm, ok := m.domains[id]
	if !ok {
		return nil, fmt.Errorf("mm: %v: %w", id, xtypes.ErrNoDomain)
	}
	return dm, nil
}

// SetMaxMem grows or shrinks a domain's reservation.
func (m *Manager) SetMaxMem(id xtypes.DomID, memMB int) error {
	dm, ok := m.domains[id]
	if !ok {
		return fmt.Errorf("mm: setmaxmem %v: %w", id, xtypes.ErrNoDomain)
	}
	pages := memMB * (1 << 20) / xtypes.PageSize
	delta := pages - dm.maxPages
	if delta > m.freePages {
		return fmt.Errorf("mm: setmaxmem %v to %dMB: %w", id, memMB, xtypes.ErrNoMem)
	}
	m.freePages -= delta
	dm.maxPages = pages
	return nil
}

// MapForeign records that mapper has mapped one of target's pages. The
// privilege decision (is mapper allowed?) belongs to the hypervisor; mm only
// maintains the reference counts.
func (m *Manager) MapForeign(mapper, target xtypes.DomID, pfn xtypes.PFN) error {
	dm, ok := m.domains[target]
	if !ok {
		return fmt.Errorf("mm: map foreign %v->%v: %w", mapper, target, xtypes.ErrNoDomain)
	}
	if _, ok := m.domains[mapper]; !ok {
		return fmt.Errorf("mm: map foreign %v->%v: mapper: %w", mapper, target, xtypes.ErrNoDomain)
	}
	if !dm.validPFN(pfn) {
		return fmt.Errorf("mm: map foreign %v pfn %d: %w", target, pfn, xtypes.ErrInvalid)
	}
	dm.foreignMappings[mapper]++
	m.mappings[mappingKey{mapper, target}]++
	return nil
}

// UnmapForeign releases a mapping created by MapForeign.
func (m *Manager) UnmapForeign(mapper, target xtypes.DomID) error {
	key := mappingKey{mapper, target}
	if m.mappings[key] == 0 {
		return fmt.Errorf("mm: unmap %v->%v: %w", mapper, target, xtypes.ErrInvalid)
	}
	m.mappings[key]--
	if dm, ok := m.domains[target]; ok {
		dm.foreignMappings[mapper]--
	}
	return nil
}

// ForeignMapCount reports how many of target's pages mapper currently maps.
func (m *Manager) ForeignMapCount(mapper, target xtypes.DomID) int {
	return m.mappings[mappingKey{mapper, target}]
}

// MappersOf lists the domains currently holding mappings of target's memory.
// The security evaluation uses this to compute memory-exposure edges.
func (m *Manager) MappersOf(target xtypes.DomID) []xtypes.DomID {
	var out []xtypes.DomID
	for key, n := range m.mappings {
		if key.target == target && n > 0 {
			out = append(out, key.mapper)
		}
	}
	return out
}

func (dm *DomainMem) validPFN(pfn xtypes.PFN) bool {
	return pfn < xtypes.PFN(dm.maxPages)
}

// MaxMB reports the reservation size.
func (dm *DomainMem) MaxMB() int { return dm.maxPages * xtypes.PageSize / (1 << 20) }

// MaxPages reports the reservation size in pages.
func (dm *DomainMem) MaxPages() int { return dm.maxPages }

// Write stores data into the page at pfn, offset 0. Writes mark the page
// dirty relative to the last snapshot.
func (dm *DomainMem) Write(pfn xtypes.PFN, data []byte) error {
	if !dm.validPFN(pfn) {
		return fmt.Errorf("mm: write %v pfn %d: %w", dm.id, pfn, xtypes.ErrInvalid)
	}
	if len(data) > xtypes.PageSize {
		return fmt.Errorf("mm: write %v pfn %d: %d bytes: %w", dm.id, pfn, len(data), xtypes.ErrInvalid)
	}
	pg := dm.pages[pfn]
	if pg == nil {
		pg = &page{}
		dm.pages[pfn] = pg
	}
	if dm.mgr != nil {
		dm.mgr.breakSharing(pg)
	}
	pg.content = append(pg.content[:0], data...)
	pg.dirtySinceSnap = true
	return nil
}

// Read returns the contents of the page at pfn (nil if never written).
func (dm *DomainMem) Read(pfn xtypes.PFN) ([]byte, error) {
	if !dm.validPFN(pfn) {
		return nil, fmt.Errorf("mm: read %v pfn %d: %w", dm.id, pfn, xtypes.ErrInvalid)
	}
	pg := dm.pages[pfn]
	if pg == nil {
		return nil, nil
	}
	out := make([]byte, len(pg.content))
	copy(out, pg.content)
	return out, nil
}

// TouchedPages reports the number of pages ever written.
func (dm *DomainMem) TouchedPages() int { return len(dm.pages) }

// DirtyPages reports pages written since the last snapshot; this is the
// copy-on-write working set whose size drives rollback cost.
func (dm *DomainMem) DirtyPages() int {
	n := 0
	for _, pg := range dm.pages {
		if pg.dirtySinceSnap {
			n++
		}
	}
	return n
}

// RegisterRecoveryBox marks a region whose contents persist across rollback
// (§3.3). Multiple disjoint regions may be registered.
func (dm *DomainMem) RegisterRecoveryBox(r Region) error {
	if r.Count <= 0 || !dm.validPFN(r.Start) || !dm.validPFN(r.Start+xtypes.PFN(r.Count)-1) {
		return fmt.Errorf("mm: recovery box %v [%d,+%d): %w", dm.id, r.Start, r.Count, xtypes.ErrInvalid)
	}
	dm.recovery = append(dm.recovery, r)
	return nil
}

func (dm *DomainMem) inRecoveryBox(pfn xtypes.PFN) bool {
	for _, r := range dm.recovery {
		if r.Contains(pfn) {
			return true
		}
	}
	return false
}

// TakeSnapshot captures the domain's current image. The copy-on-write flags
// reset: subsequent writes count as the dirty set for the next rollback.
func (dm *DomainMem) TakeSnapshot() *Snapshot {
	snap := &Snapshot{contents: make(map[xtypes.PFN][]byte, len(dm.pages))}
	for pfn, pg := range dm.pages {
		c := make([]byte, len(pg.content))
		copy(c, pg.content)
		snap.contents[pfn] = c
		pg.dirtySinceSnap = false
	}
	snap.takenPages = len(dm.pages)
	dm.snapshot = snap
	return snap
}

// Snapshot returns the current snapshot, or nil if none was taken.
func (dm *DomainMem) Snapshot() *Snapshot { return dm.snapshot }

// SnapEpoch reports how many rollbacks the domain has undergone.
func (dm *DomainMem) SnapEpoch() int { return dm.snapEpoch }

// Rollback restores the domain to its snapshot, preserving recovery-box
// regions. It returns the number of pages that had to be restored (the dirty
// set), which the microreboot engine converts into rollback latency.
func (dm *DomainMem) Rollback() (restored int, err error) {
	if dm.snapshot == nil {
		return 0, fmt.Errorf("mm: rollback %v: no snapshot: %w", dm.id, xtypes.ErrInvalid)
	}
	for pfn, pg := range dm.pages {
		if !pg.dirtySinceSnap {
			continue
		}
		if dm.inRecoveryBox(pfn) {
			continue // recovery box survives rollback
		}
		restored++
		if snapContent, ok := dm.snapshot.contents[pfn]; ok {
			pg.content = append(pg.content[:0], snapContent...)
		} else {
			delete(dm.pages, pfn) // page did not exist at snapshot time
		}
		if pg := dm.pages[pfn]; pg != nil {
			pg.dirtySinceSnap = false
		}
	}
	dm.snapEpoch++
	return restored, nil
}
