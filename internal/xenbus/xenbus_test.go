package xenbus

import (
	"testing"

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
