package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"xoar"
)

func TestParseProfile(t *testing.T) {
	for _, tc := range []struct {
		name string
		want xoar.Profile
		ok   bool
	}{
		{"xoar", xoar.XoarShards, true},
		{"dom0", xoar.MonolithicDom0, true},
		{"", 0, false},
		{"bogus", 0, false},
		{"Dom0", 0, false},
		{"xoar-shards", 0, false},
	} {
		got, err := parseProfile(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("parseProfile(%q) err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseProfile(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestUnknownProfileExitsWithUsage runs main in a child process: an unknown
// -profile must exit 2 with the usage text instead of booting anything.
func TestUnknownProfileExitsWithUsage(t *testing.T) {
	if os.Getenv("XOAR_MAIN_CHILD") == "1" {
		os.Args = []string{"xoar", "-profile", "bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownProfileExitsWithUsage$")
	cmd.Env = append(os.Environ(), "XOAR_MAIN_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, `unknown profile "bogus"`) || !strings.Contains(s, "Usage of") || strings.Contains(s, "booted") {
		t.Fatalf("output does not refuse with usage:\n%s", s)
	}
}
