package osimage

import (
	"errors"
	"testing"

	"xoar/internal/xtypes"
)

func TestCatalogContainsAllComponents(t *testing.T) {
	c := DefaultCatalog()
	for _, name := range []string{
		ImgBootstrapper, ImgBuilder, ImgXenStoreL, ImgXenStoreS, ImgConsole,
		ImgPCIBack, ImgNetBack, ImgBlkBack, ImgToolstack, ImgQemu, ImgDom0,
		ImgGuestPV, ImgGuestHVM, ImgBootloader,
	} {
		if _, err := c.Lookup(name); err != nil {
			t.Errorf("missing image %q: %v", name, err)
		}
	}
}

func TestUnknownImageRejected(t *testing.T) {
	c := DefaultCatalog()
	if _, err := c.Lookup("user-supplied-kernel"); !errors.Is(err, xtypes.ErrNotFound) {
		t.Fatalf("unknown image: %v", err)
	}
}

// Table 6.1's memory figures must be encoded exactly.
func TestTable61MemoryFigures(t *testing.T) {
	c := DefaultCatalog()
	want := map[string]int{
		ImgXenStoreL: 32,
		ImgXenStoreS: 32,
		ImgConsole:   128,
		ImgPCIBack:   256,
		ImgNetBack:   128,
		ImgBlkBack:   128,
		ImgBuilder:   64,
		ImgToolstack: 128,
		ImgDom0:      750,
	}
	for name, mb := range want {
		im, err := c.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if im.MemMB != mb {
			t.Errorf("%s memory = %dMB, want %d", name, im.MemMB, mb)
		}
	}
}

// §6.2's TCB line counts: nanOS components total 13K source / 8K compiled;
// Dom0's Linux is 7.6M/400K; Xen itself 280K/70K.
func TestTCBLineCounts(t *testing.T) {
	c := DefaultCatalog()
	boot, _ := c.Lookup(ImgBootstrapper)
	build, _ := c.Lookup(ImgBuilder)
	if got := boot.SourceLoC + build.SourceLoC; got != 13_000 {
		t.Errorf("nanOS source LoC = %d, want 13000", got)
	}
	if got := boot.CompiledLoC + build.CompiledLoC; got != 8_000 {
		t.Errorf("nanOS compiled LoC = %d, want 8000", got)
	}
	dom0, _ := c.Lookup(ImgDom0)
	if dom0.SourceLoC != 7_600_000 || dom0.CompiledLoC != 400_000 {
		t.Errorf("dom0 LoC = %d/%d", dom0.SourceLoC, dom0.CompiledLoC)
	}
	if XenSourceLoC != 280_000 || XenCompiledLoC != 70_000 {
		t.Error("Xen LoC constants changed")
	}
}

func TestBootTimeComposition(t *testing.T) {
	c := DefaultCatalog()
	im, _ := c.Lookup(ImgNetBack)
	if im.BootTime() != im.KernelBoot+im.ServiceBoot {
		t.Fatal("BootTime is not the phase sum")
	}
	// nanOS images must boot orders of magnitude faster than Linux ones.
	nano, _ := c.Lookup(ImgBuilder)
	if nano.BootTime()*10 > im.BootTime() {
		t.Fatalf("nanOS boot %v vs linux %v", nano.BootTime(), im.BootTime())
	}
}

func TestKindString(t *testing.T) {
	if NanOS.String() != "nanOS" || MiniOS.String() != "miniOS" ||
		Linux.String() != "linux" || LinuxFull.String() != "linux-full" {
		t.Fatal("kind names wrong")
	}
}

func TestNames(t *testing.T) {
	c := DefaultCatalog()
	if len(c.images) != 15 {
		t.Fatalf("catalog size = %d", len(c.images))
	}
}
