package mm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"xoar/internal/xtypes"
)

func TestCreateDestroyAccounting(t *testing.T) {
	m := NewManager(4096)
	if m.FreeMB() != 4096 {
		t.Fatalf("free = %d, want 4096", m.FreeMB())
	}
	dm, err := m.CreateDomain(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if dm.MaxMB() != 1024 || m.FreeMB() != 3072 {
		t.Fatalf("max=%d free=%d", dm.MaxMB(), m.FreeMB())
	}
	if _, err := m.CreateDomain(1, 10); !errors.Is(err, xtypes.ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := m.DestroyDomain(1); err != nil {
		t.Fatal(err)
	}
	if m.FreeMB() != 4096 {
		t.Fatalf("free after destroy = %d", m.FreeMB())
	}
	if err := m.DestroyDomain(1); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("double destroy: %v", err)
	}
}

func TestOvercommitRefused(t *testing.T) {
	m := NewManager(1024)
	if _, err := m.CreateDomain(1, 2048); !errors.Is(err, xtypes.ErrNoMem) {
		t.Fatalf("overcommit: %v", err)
	}
}

func TestSetMaxMem(t *testing.T) {
	m := NewManager(2048)
	if _, err := m.CreateDomain(1, 512); err != nil {
		t.Fatal(err)
	}
	if err := m.SetMaxMem(1, 1024); err != nil {
		t.Fatal(err)
	}
	if m.FreeMB() != 1024 {
		t.Fatalf("free = %d", m.FreeMB())
	}
	if err := m.SetMaxMem(1, 4096); !errors.Is(err, xtypes.ErrNoMem) {
		t.Fatalf("grow beyond free: %v", err)
	}
	if err := m.SetMaxMem(1, 256); err != nil {
		t.Fatal(err)
	}
	if m.FreeMB() != 1792 {
		t.Fatalf("free after shrink = %d", m.FreeMB())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewManager(64)
	dm, _ := m.CreateDomain(1, 16)
	data := []byte("xenstore start-info page")
	if err := dm.Write(3, data); err != nil {
		t.Fatal(err)
	}
	got, err := dm.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Unwritten page reads as nil.
	if got, _ := dm.Read(4); got != nil {
		t.Fatalf("unwritten page = %q", got)
	}
	// Out-of-range PFN.
	if err := dm.Write(xtypes.PFN(dm.MaxPages()), data); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("oob write: %v", err)
	}
	// Oversized write.
	if err := dm.Write(0, make([]byte, xtypes.PageSize+1)); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("oversize write: %v", err)
	}
}

func TestForeignMappingRefcounts(t *testing.T) {
	m := NewManager(256)
	m.CreateDomain(1, 64)
	m.CreateDomain(2, 64)
	if err := m.MapForeign(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.MapForeign(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if n := m.ForeignMapCount(1, 2); n != 2 {
		t.Fatalf("count = %d", n)
	}
	// Destroy target refused while mapped.
	if err := m.DestroyDomain(2); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("destroy with live mappings: %v", err)
	}
	m.UnmapForeign(1, 2)
	m.UnmapForeign(1, 2)
	if err := m.UnmapForeign(1, 2); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("unbalanced unmap: %v", err)
	}
	if err := m.DestroyDomain(2); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyMapperReleasesTargets(t *testing.T) {
	m := NewManager(256)
	m.CreateDomain(1, 64)
	m.CreateDomain(2, 64)
	m.MapForeign(1, 2, 0)
	// Destroying the mapper clears its outgoing mappings, so the target can go.
	if err := m.DestroyDomain(1); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyDomain(2); err != nil {
		t.Fatalf("target destroy after mapper gone: %v", err)
	}
}

func TestMappersOf(t *testing.T) {
	m := NewManager(256)
	m.CreateDomain(1, 32)
	m.CreateDomain(2, 32)
	m.CreateDomain(3, 32)
	m.MapForeign(1, 3, 0)
	m.MapForeign(2, 3, 0)
	mappers := m.MappersOf(3)
	if len(mappers) != 2 {
		t.Fatalf("mappers = %v", mappers)
	}
	m.UnmapForeign(1, 3)
	if got := m.MappersOf(3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("mappers after unmap = %v", got)
	}
}

func TestSnapshotRollbackRestoresContents(t *testing.T) {
	m := NewManager(64)
	dm, _ := m.CreateDomain(1, 16)
	dm.Write(0, []byte("boot state"))
	dm.Write(1, []byte("initialized"))
	snap := dm.TakeSnapshot()
	if snap.Pages() != 2 {
		t.Fatalf("snapshot pages = %d", snap.Pages())
	}
	if dm.DirtyPages() != 0 {
		t.Fatalf("dirty after snapshot = %d", dm.DirtyPages())
	}

	dm.Write(0, []byte("corrupted by attacker"))
	dm.Write(5, []byte("attacker implant"))
	if dm.DirtyPages() != 2 {
		t.Fatalf("dirty = %d", dm.DirtyPages())
	}

	restored, err := dm.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored = %d", restored)
	}
	got, _ := dm.Read(0)
	if string(got) != "boot state" {
		t.Fatalf("page 0 after rollback = %q", got)
	}
	if got, _ := dm.Read(5); got != nil {
		t.Fatalf("implant page survived rollback: %q", got)
	}
}

func TestRecoveryBoxSurvivesRollback(t *testing.T) {
	m := NewManager(64)
	dm, _ := m.CreateDomain(1, 16)
	dm.Write(0, []byte("code"))
	if err := dm.RegisterRecoveryBox(Region{Start: 8, Count: 2}); err != nil {
		t.Fatal(err)
	}
	dm.TakeSnapshot()

	dm.Write(8, []byte("negotiated ring config")) // long-lived state
	dm.Write(0, []byte("scratch"))                // transient state

	if _, err := dm.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, _ := dm.Read(8)
	if string(got) != "negotiated ring config" {
		t.Fatalf("recovery box lost: %q", got)
	}
	got, _ = dm.Read(0)
	if string(got) != "code" {
		t.Fatalf("non-box page not rolled back: %q", got)
	}
}

func TestRollbackWithoutSnapshotFails(t *testing.T) {
	m := NewManager(64)
	dm, _ := m.CreateDomain(1, 16)
	if _, err := dm.Rollback(); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("rollback without snapshot: %v", err)
	}
}

func TestRecoveryBoxValidation(t *testing.T) {
	m := NewManager(64)
	dm, _ := m.CreateDomain(1, 1) // 256 pages
	cases := []Region{
		{Start: 0, Count: 0},
		{Start: xtypes.PFN(dm.MaxPages()), Count: 1},
		{Start: xtypes.PFN(dm.MaxPages() - 1), Count: 2},
	}
	for _, r := range cases {
		if err := dm.RegisterRecoveryBox(r); !errors.Is(err, xtypes.ErrInvalid) {
			t.Errorf("region %+v accepted: %v", r, err)
		}
	}
}

// Property: rollback after a snapshot always restores every non-recovery-box
// page to its snapshot contents, regardless of the write pattern.
func TestRollbackRestoresProperty(t *testing.T) {
	f := func(writes []uint8, payloads []byte) bool {
		m := NewManager(16)
		dm, _ := m.CreateDomain(1, 1) // 256 pages
		base := []byte("base")
		for i := 0; i < 16; i++ {
			dm.Write(xtypes.PFN(i), base)
		}
		dm.TakeSnapshot()
		for i, w := range writes {
			pfn := xtypes.PFN(w) % 256
			payload := []byte{byte(i)}
			if len(payloads) > 0 {
				payload = append(payload, payloads[i%len(payloads)])
			}
			dm.Write(pfn, payload)
		}
		if _, err := dm.Rollback(); err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			got, _ := dm.Read(xtypes.PFN(i))
			if !bytes.Equal(got, base) {
				return false
			}
		}
		// Pages beyond the initial 16 must be gone again.
		for i := 16; i < 256; i++ {
			if got, _ := dm.Read(xtypes.PFN(i)); got != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: reservation accounting never leaks pages across arbitrary
// create/destroy sequences.
func TestAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewManager(1024)
		live := map[xtypes.DomID]bool{}
		for i, op := range ops {
			id := xtypes.DomID(op % 8)
			if op%2 == 0 {
				if _, err := m.CreateDomain(id, int(op%5)*32+32); err == nil {
					live[id] = true
				}
			} else {
				if err := m.DestroyDomain(id); err == nil {
					delete(live, id)
				}
			}
			_ = i
		}
		used := 0
		for id := range live {
			dm, ok := m.domains[id]
			if !ok {
				return false
			}
			used += dm.MaxMB()
		}
		return m.FreeMB()+used == 1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
