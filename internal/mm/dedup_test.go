package mm

import (
	"testing"

	"xoar/internal/xtypes"
)

func TestDedupMergesIdenticalPages(t *testing.T) {
	m := NewManager(256)
	a, _ := m.CreateDomain(1, 64)
	b, _ := m.CreateDomain(2, 64)
	c, _ := m.CreateDomain(3, 64)
	zero := make([]byte, 512) // identical "zero pages"
	const per = 600
	for i := 0; i < per; i++ {
		a.Write(xtypes.PFN(i), zero)
		b.Write(xtypes.PFN(i), zero)
		c.Write(xtypes.PFN(i), zero)
	}
	a.Write(1000, []byte("unique-a"))
	b.Write(1000, []byte("unique-b"))

	st := m.Dedup()
	if st.Scanned != 3*per+2 {
		t.Fatalf("scanned = %d", st.Scanned)
	}
	if st.Groups != 1 {
		t.Fatalf("groups = %d", st.Groups)
	}
	// 1800 identical pages → 1799 frames saved (~7MB).
	if st.SavedPages != 3*per-1 || m.dedupSavedPages != 3*per-1 {
		t.Fatalf("saved = %d / %d", st.SavedPages, m.dedupSavedPages)
	}
	if m.EffectiveFreeMB() <= m.FreeMB() {
		t.Fatal("sharing reclaimed no headroom")
	}
}

func TestWriteBreaksSharing(t *testing.T) {
	m := NewManager(256)
	a, _ := m.CreateDomain(1, 64)
	b, _ := m.CreateDomain(2, 64)
	same := []byte("common content")
	a.Write(0, same)
	b.Write(0, same)
	m.Dedup()
	if m.dedupSavedPages != 1 {
		t.Fatalf("saved = %d", m.dedupSavedPages)
	}

	// A writes to its copy: CoW fault, sharing broken, savings gone.
	a.Write(0, []byte("diverged"))
	if m.dedupSavedPages != 0 {
		t.Fatalf("saved after break = %d", m.dedupSavedPages)
	}
	// B's copy is unharmed.
	data, _ := b.Read(0)
	if string(data) != "common content" {
		t.Fatalf("sharer's content corrupted: %q", data)
	}
}

func TestRescanRemerges(t *testing.T) {
	m := NewManager(256)
	a, _ := m.CreateDomain(1, 64)
	b, _ := m.CreateDomain(2, 64)
	a.Write(0, []byte("v1"))
	b.Write(0, []byte("v1"))
	m.Dedup()
	a.Write(0, []byte("v2"))
	if m.dedupSavedPages != 0 {
		t.Fatal("sharing should be broken")
	}
	// The pages converge again; the next scan re-merges them.
	b.Write(0, []byte("v2"))
	st := m.Dedup()
	if st.SavedPages != 1 || m.dedupSavedPages != 1 {
		t.Fatalf("re-merge: %+v / %d", st, m.dedupSavedPages)
	}
}

func TestDedupIdempotent(t *testing.T) {
	m := NewManager(256)
	a, _ := m.CreateDomain(1, 64)
	b, _ := m.CreateDomain(2, 64)
	a.Write(0, []byte("x"))
	b.Write(0, []byte("x"))
	m.Dedup()
	st := m.Dedup()
	if st.SavedPages != 1 || m.dedupSavedPages != 1 {
		t.Fatalf("double scan inflated savings: %+v / %d", st, m.dedupSavedPages)
	}
}
