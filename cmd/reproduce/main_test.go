package main

import (
	"strings"
	"testing"

	"ib12x/internal/bench"
)

// TestFiguresSmoke runs figures 3–8 and the headline at the reduced
// iteration counts of -quick and checks one known row of each, so the
// figure pipeline from simulation to printed table stays pinned. Rows are
// compared field by field, ignoring column padding.
func TestFiguresSmoke(t *testing.T) {
	rows := map[string]string{
		"headline": "uni-dir peak, EPC (MB/s) 2745 2731",
		"3":        "1 6.22 6.22 6.22",
		"4":        "1M 668.48 426.45 668.48 426.45 668.48",
		"5":        "8K 1203.30 1879.52 1879.52 1879.52",
		"6":        "1M 1659.28 2730.83 2730.00",
		"7":        "1M 3295.78 5405.91 5405.01",
		"8":        "16K 392.84 392.84 286.41 286.41",
	}
	for fig, row := range rows {
		var out strings.Builder
		if err := run(&out, fig, bench.FigOpts{Quick: true}); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		if !hasRow(out.String(), row) {
			t.Errorf("figure %s: no row %q in\n%s", fig, row, out.String())
		}
	}
}

// hasRow reports whether some line of out has the fields of row.
func hasRow(out, row string) bool {
	want := strings.Join(strings.Fields(row), " ")
	for _, line := range strings.Split(out, "\n") {
		if strings.Join(strings.Fields(line), " ") == want {
			return true
		}
	}
	return false
}

func TestUnknownFigureIsAnError(t *testing.T) {
	var out strings.Builder
	err := run(&out, "13", bench.FigOpts{Quick: true})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "13"`) || out.Len() != 0 {
		t.Errorf("run(13) = %v, printed %q; want an unknown-figure error and no output", err, out.String())
	}
}
