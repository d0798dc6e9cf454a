package xenbus

import (
	"slices"
	"testing"

	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// A tuple is exactly len(refs) grant refs and a port, each an unsigned
// decimal, separated by single slashes: nothing may precede, follow or
// pad a field.
func TestParseRingRef(t *testing.T) {
	for _, tc := range []struct {
		adv   string
		pages int
		ok    bool
		refs  []xtypes.GrantRef
		port  xtypes.Port
	}{
		{"7/9", 1, true, []xtypes.GrantRef{7}, 9},
		{"7/8/9", 2, true, []xtypes.GrantRef{7, 8}, 9},
		{"7/8/9", 1, false, nil, 0},
		{"7/9", 2, false, nil, 0},
		{"7/9/", 1, false, nil, 0},
		{"7//9", 2, false, nil, 0},
		{"+7/9", 1, false, nil, 0},
		{"-7/9", 1, false, nil, 0},
		{"7/ 9", 1, false, nil, 0},
		{"7/9 ", 1, false, nil, 0},
		{"7/0x9", 1, false, nil, 0},
		{"7/4294967296", 1, false, nil, 0},
		{"", 1, false, nil, 0},
	} {
		refs := make([]xtypes.GrantRef, tc.pages)
		port, ok := parseRingRef(tc.adv, refs)
		if ok != tc.ok {
			t.Errorf("parseRingRef(%q, %d pages) ok = %v, want %v", tc.adv, tc.pages, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if port != tc.port {
			t.Errorf("parseRingRef(%q) port = %d, want %d", tc.adv, port, tc.port)
		}
		for i, want := range tc.refs {
			if refs[i] != want {
				t.Errorf("parseRingRef(%q) ref %d = %d, want %d", tc.adv, i, refs[i], want)
			}
		}
	}
}

// InGuestOrder lists a backend's devices in DomID order without allocating,
// given a stack buffer, for as many devices as a backend serves here.
func TestInGuestOrderAllocatesNothing(t *testing.T) {
	m := map[xtypes.DomID]string{9: "c", 3: "a", 7: "b", 12: "d"}
	var got []string
	allocs := testing.AllocsPerRun(100, func() {
		var buf [8]string
		got = append(got[:0], InGuestOrder(m, buf[:0])...)
	})
	if want := []string{"a", "b", "c", "d"}; !slices.Equal(got, want) {
		t.Fatalf("InGuestOrder = %q, want %q", got, want)
	}
	if allocs != 0 {
		t.Fatalf("InGuestOrder allocates %.1f times per call, want 0", allocs)
	}
}

// A backend microreboot disconnects and reconnects each device, so a pair
// allocates only the two state values the store copies, not the state key.
func TestDisconnectReconnectAllocs(t *testing.T) {
	xs := xenstore.NewLogic(xenstore.NewState()).Connect(0, true)
	b := Backend{XS: xs, class: &Class{Name: "vif"}, path: "/local/domain/0/backend/vif"}
	var d Device
	b.Init(&d, 5, 1)
	allocs := testing.AllocsPerRun(100, func() {
		d.Disconnect()
		d.Reconnect()
	})
	if v, err := xs.Read("/local/domain/0/backend/vif/5/state"); err != nil || v != "connected" {
		t.Fatalf("backend state = %q, %v; want connected", v, err)
	}
	if allocs > 2 {
		t.Fatalf("Disconnect and Reconnect allocate %.1f times, want 2", allocs)
	}
}
