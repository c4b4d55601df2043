package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write puts body in a file under dir and returns its path.
func write(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadFloor(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		body string
		want float64
		err  bool
	}{
		{body: "83.5\n", want: 83.5},
		{body: "# header\n\n   # indented comment\n  83.5%  \n99\n", want: 83.5},
		{body: "70%", want: 70},
		{body: "", err: true},
		{body: "# only comments\n\n", err: true},
		{body: "eighty\n", err: true},
	} {
		got, err := readFloor(write(t, dir, "floor", c.body))
		if (err != nil) != c.err || got != c.want {
			t.Errorf("readFloor(%q) = %v, %v; want %v, error %v", c.body, got, err, c.want, c.err)
		}
	}
	if _, err := readFloor(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing floor file: no error")
	}
}

func TestReadProfileRejectsMalformedLines(t *testing.T) {
	dir := t.TempDir()
	for _, line := range []string{
		"a.go:1.1,2.2 3",
		"a.go:1.1,2.2 3 1 extra",
		"a.go:1.1,2.2 x 1",
		"a.go:1.1,2.2 3 y",
	} {
		p := write(t, dir, "bad.out", "mode: set\n"+line+"\n")
		if err := readProfile(p, map[block]bool{}); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%q: error %v, want a malformed-line error", line, err)
		}
	}
}

// Two profiles over one package: each covers a block the other missed, and
// b.go is covered by neither, so the merge is 4 of 8 statements.
const (
	profA = "mode: set\na.go:1.1,2.2 3 1\na.go:3.1,4.2 1 0\n"
	profB = "mode: count\na.go:1.1,2.2 3 0\na.go:3.1,4.2 1 7\n\nb.go:1.1,2.2 4 0\n"
)

func TestRunMergesProfilesAndGates(t *testing.T) {
	dir := t.TempDir()
	a, b := write(t, dir, "a.out", profA), write(t, dir, "b.out", profB)
	both := a + ", " + b
	for _, c := range []struct {
		name, profile, floor string
		pass                 bool
	}{
		{"one profile", a, "75", true},
		{"merged at the floor", both, "50.0", true},
		{"merged within epsilon", both, "50.05%", true},
		{"merged below the floor", both, "50.2", false},
		{"b alone", b, "12.5", true},
		{"b alone lacks a's block", b, "50", false},
	} {
		floor := write(t, dir, "floor", "# floor\n"+c.floor+"\n")
		err := run([]string{"-profile", c.profile, "-floor", floor}, io.Discard)
		if (err == nil) != c.pass {
			t.Errorf("%s: run = %v, want pass %v", c.name, err, c.pass)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	a := write(t, dir, "a.out", profA)
	floor := write(t, dir, "floor", "50\n")
	for name, args := range map[string][]string{
		"missing profile": {"-profile", filepath.Join(dir, "none.out"), "-floor", floor},
		"no blocks":       {"-profile", write(t, dir, "empty.out", "mode: set\n"), "-floor", floor},
		"empty floor":     {"-profile", a, "-floor", write(t, dir, "empty", "")},
		"unknown flag":    {"-bogus"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRunRecordRewritesFloor(t *testing.T) {
	dir := t.TempDir()
	a := write(t, dir, "a.out", profA)
	floor := write(t, dir, "floor", "99\n")
	var out strings.Builder
	if err := run([]string{"-profile", a, "-floor", floor, "-record"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recorded floor 75.0%") {
		t.Errorf("record output %q", out.String())
	}
	if got, err := readFloor(floor); err != nil || got != 75 {
		t.Errorf("recorded floor reads back %v, %v; want 75", got, err)
	}
	if err := run([]string{"-profile", a, "-floor", floor}, io.Discard); err != nil {
		t.Errorf("gate against the floor it just recorded: %v", err)
	}
}
