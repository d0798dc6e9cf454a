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

	// 1800 identical pages → 1799 frames saved (~7MB); the unique pages
	// share nothing.
	if saved := m.Dedup(); saved != 3*per-1 {
		t.Fatalf("saved = %d", saved)
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
	if saved := m.Dedup(); saved != 1 {
		t.Fatalf("re-merge saved %d", saved)
	}
}

func TestDedupIdempotent(t *testing.T) {
	m := NewManager(256)
	a, _ := m.CreateDomain(1, 64)
	b, _ := m.CreateDomain(2, 64)
	a.Write(0, []byte("x"))
	b.Write(0, []byte("x"))
	m.Dedup()
	if saved := m.Dedup(); saved != 1 {
		t.Fatalf("double scan inflated savings: %d", saved)
	}
}
