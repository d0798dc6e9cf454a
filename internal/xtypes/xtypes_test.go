package xtypes

import (
	"errors"
	"fmt"
	"testing"
)

// TestDomIDString pins String and AppendTo to the fmt rendering the audit
// chain's hashes were first computed over.
func TestDomIDString(t *testing.T) {
	for _, d := range []DomID{Dom0, 7, 4096, 0x7FFFFFFE, DomIDNone, 0xFFFFFFFF} {
		want := "dom-none"
		if d != DomIDNone {
			want = fmt.Sprintf("dom%d", uint32(d))
		}
		if got := d.String(); got != want {
			t.Errorf("DomID(%#x).String() = %q, want %q", uint32(d), got, want)
		}
		if got := string(d.AppendTo([]byte("id="))); got != "id="+want {
			t.Errorf("DomID(%#x).AppendTo(\"id=\") = %q, want %q", uint32(d), got, "id="+want)
		}
	}
}

func TestHypercallNamesComplete(t *testing.T) {
	for h := Hypercall(0); h < NumHypercalls; h++ {
		s := h.String()
		if s == "" || s == fmt.Sprintf("hypercall(%d)", uint32(h)) {
			t.Errorf("hypercall %d has no name", h)
		}
	}
	// Out-of-range formats generically.
	if Hypercall(999).String() != "hypercall(999)" {
		t.Fatalf("unknown hypercall = %q", Hypercall(999).String())
	}
}

func TestPrivilegeSplit(t *testing.T) {
	unpriv := UnprivilegedSet()
	if len(unpriv) != 8 {
		t.Fatalf("unprivileged set = %d calls", len(unpriv))
	}
	for _, h := range unpriv {
		if h.Privileged() {
			t.Errorf("%v in unprivileged set but Privileged()", h)
		}
	}
	// The Figure 3.1 privilege-assignment calls must all be privileged.
	for _, h := range []Hypercall{HyperDomctlPriv, HyperMapForeign, HyperAssignDevice, HyperDelegateAdmin, HyperVMRollback} {
		if !h.Privileged() {
			t.Errorf("%v should be privileged", h)
		}
	}
	// The narrow interface: roughly forty calls, like Xen's (§4.1).
	if NumHypercalls < 20 || NumHypercalls > 60 {
		t.Fatalf("hypercall count = %d, implausible for the Xen model", NumHypercalls)
	}
}

func TestVIRQAndPCIStrings(t *testing.T) {
	if VIRQConsole.String() != "virq-console" || VIRQTimer.String() != "virq-timer" {
		t.Fatal("virq names wrong")
	}
	if VIRQ(99).String() != "virq(99)" {
		t.Fatal("unknown virq format")
	}
	a := PCIAddr{Domain: 0, Bus: 2, Slot: 0}
	if a.String() != "0000:02:00" {
		t.Fatalf("pci addr = %q", a.String())
	}
	if DevNIC.String() != "nic" || DevDisk.String() != "disk" || DevSerial.String() != "serial" || DeviceClass(9).String() != "other" {
		t.Fatal("device class names wrong")
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{
		ErrPerm, ErrNoDomain, ErrBadGrant, ErrBadPort, ErrInUse, ErrNoMem,
		ErrNotFound, ErrExists, ErrInvalid, ErrAgain, ErrShutdown,
		ErrConstraint, ErrNotShard, ErrNotDelegated, ErrQuota,
	}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Errorf("errors %d and %d alias", i, j)
			}
		}
		// Wrapping preserves identity.
		if !errors.Is(fmt.Errorf("ctx: %w", a), a) {
			t.Errorf("error %d does not survive wrapping", i)
		}
	}
}

func TestIsDenial(t *testing.T) {
	for _, err := range []error{ErrPerm, ErrNotDelegated, ErrNotShard} {
		if !IsDenial(err) || !IsDenial(fmt.Errorf("hv: ctx: %w", err)) {
			t.Errorf("IsDenial(%v) = false, want true (bare and wrapped)", err)
		}
	}
	for _, err := range []error{nil, ErrNoDomain, ErrInvalid, ErrBadGrant, ErrBadPort, fmt.Errorf("ctx: %v", ErrPerm)} {
		if IsDenial(err) {
			t.Errorf("IsDenial(%v) = true, want false", err)
		}
	}
}
