package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ib12x/internal/bench"
)

// TestReportsMatchGolden runs every kernel at class S on 2x2 EPC 4 QPs, in
// both modes where the kernel has a real one, plus a small sweep with a
// 3x1 layout, and compares stdout byte for byte with testdata/. The
// single-kernel files and every sweep row but lu/S/3x1 were recorded from
// the per-kernel code bench.RunNAS replaced.
func TestReportsMatchGolden(t *testing.T) {
	k := func(kernel string, extra ...string) []string {
		return append([]string{"-kernel", kernel, "-class", "S", "-nodes", "2", "-ppn", "2", "-qps", "4", "-policy", "epc"}, extra...)
	}
	for golden, args := range map[string][]string{
		"is.txt": k("is"), "is_real.txt": k("is", "-real"),
		"ft.txt": k("ft"), "ft_real.txt": k("ft", "-real"),
		"ep.txt": k("ep"), "ep_real.txt": k("ep", "-real"),
		"cg.txt": k("cg"),
		"mg.txt": k("mg"), "mg_real.txt": k("mg", "-real"),
		"lu.txt":        k("lu"),
		"sweep_3x1.txt": {"-sweep", "-procs", "2x1,3x1", "-policies", "epc", "-protos", "rdma"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(&out, args); err != nil {
			t.Errorf("%s: %v", golden, err)
		}
		if out.String() != string(want) {
			t.Errorf("%s: got\n%s\nwant\n%s", golden, out.String(), want)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "xx"},
		{"-class", "SW"},
		{"-class", "Q"},
		{"-policy", "bogus"},
		{"-cache", "nas_sweep.json"},
		{"-sweep", "-policies", "bogus"},
		{"-sweep", "-procs", "2by1"},
		{"-sweep", "-protos", "udp"},
	} {
		var out strings.Builder
		if err := run(&out, args); err == nil || out.Len() != 0 {
			t.Errorf("run(%q) = %v, printed %q; want an error and no output", args, err, out.String())
		}
	}
	var out strings.Builder
	if err := run(&out, []string{"-kernel", "lu", "-nodes", "3"}); !errors.Is(err, bench.ErrLayout) || out.Len() != 0 {
		t.Errorf("LU on 3 ranks: %v, printed %q; want ErrLayout and no output", err, out.String())
	}
}

// TestPolicyAliases: nasrun takes ibsim's spellings too.
func TestPolicyAliases(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-kernel", "lu", "-policy", "bind"}); err != nil || !strings.Contains(out.String(), "binding 4QP") {
		t.Errorf("-policy bind: %v, printed %q", err, out.String())
	}
}
