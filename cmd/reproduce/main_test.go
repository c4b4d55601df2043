package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ib12x/internal/bench"
)

// TestFiguresGolden runs figures 3–8, 11 and 12, the headline and the
// supplementary tables at the reduced iteration counts of -quick and
// compares each output byte for byte with testdata/, so the figure
// pipeline from simulation to printed table stays pinned. Figures 9 and
// 10 (NAS IS) stay out: they take seconds, not tenths, so `make figs`
// diffs them against testdata/fig9.txt and fig10.txt. A figure's file is
// the stdout of `reproduce -quick -fig N`; extra.txt is the stdout of
// `reproduce -quick -fig headline -extra` without its first nine lines.
func TestFiguresGolden(t *testing.T) {
	o := bench.FigOpts{Quick: true}
	cases := map[string]func(*strings.Builder) error{
		"extra.txt": func(w *strings.Builder) error { return supplementary(w, o) },
	}
	for _, fig := range []string{"3", "4", "5", "6", "7", "8", "11", "12", "headline"} {
		fig := fig
		cases["fig"+fig+".txt"] = func(w *strings.Builder) error { return run(w, fig, o) }
	}
	for golden, gen := range cases {
		var out strings.Builder
		if err := gen(&out); err != nil {
			t.Errorf("%s: %v", golden, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("%s: got\n%s\nwant\n%s", golden, out.String(), want)
		}
	}
}

func TestUnknownFigureIsAnError(t *testing.T) {
	var out strings.Builder
	err := run(&out, "13", bench.FigOpts{Quick: true})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "13"`) || out.Len() != 0 {
		t.Errorf("run(13) = %v, printed %q; want an unknown-figure error and no output", err, out.String())
	}
}
