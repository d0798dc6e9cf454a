package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A one-directory run loads the whole module, so its passes see every
// callee and it agrees with ./...: hotpath resolves every call out of the
// data-path packages, and privflow summarizes every callee hv makes.
func TestOneDirectoryRunsAgreeWithModule(t *testing.T) {
	var out, errOut bytes.Buffer
	dirs := []string{"../../internal/evtchn", "../../internal/netdrv", "../../internal/ring"}
	if code := run(dirs, &out, &errOut); code != 0 || out.Len() != 0 {
		t.Errorf("xoarlint %s: exit %d, want a clean 0:\n%s%s", strings.Join(dirs, " "), code, &out, &errOut)
	}
	out.Reset()
	if code := run([]string{"-matrix", "../../internal/hv"}, &out, &errOut); code != 0 {
		t.Fatalf("xoarlint -matrix: exit %d: %s", code, &errOut)
	}
	want, err := os.ReadFile("../../PRIVMATRIX.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("xoarlint -matrix ../../internal/hv differs from PRIVMATRIX.json")
	}
}

// A one-directory run reports the findings in that directory's files and
// no others.
func TestOneDirectoryRunReportsOnlyItsFindings(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":          "module xoar\n\ngo 1.22\n",
		"xoar.go":         "package xoar\n\nimport (\n\t\"xoar/internal/a\"\n\t\"xoar/internal/b\"\n)\n\nvar _, _ = a.Used, b.Used\n",
		"internal/a/a.go": "package a\n\nvar Used = 1\n\nfunc orphanA() {}\n",
		"internal/b/b.go": "package b\n\nvar Used = 1\n\nfunc orphanB() {}\n",
		"internal/c/c.go": "package c\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		dirs []string
		code int
		want []string
	}{
		{[]string{"a"}, 1, []string{"orphanA"}},
		{[]string{"a", "b"}, 1, []string{"orphanA", "orphanB"}},
		{[]string{"c"}, 0, nil},
	} {
		var args []string
		for _, d := range tc.dirs {
			args = append(args, filepath.Join(dir, "internal", d))
		}
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if out.Len() == 0 {
			lines = nil
		}
		ok := code == tc.code && len(lines) == len(tc.want)
		for i := 0; ok && i < len(lines); i++ {
			ok = strings.Contains(lines[i], tc.want[i])
		}
		if !ok {
			t.Errorf("xoarlint %v: exit %d, output:\n%s%s\nwant exit %d and findings %v", tc.dirs, code, &out, &errOut, tc.code, tc.want)
		}
	}
}
