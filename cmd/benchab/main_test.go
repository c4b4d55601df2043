package main

import "testing"

func TestSummarize(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	head := []float64{1, 1, 4, 3, 5}
	for _, tc := range []struct {
		better       string
		headW, baseW int
	}{
		{"lower", 2, 1},  // pairs 2 and 4 went down, pair 3 up; pairs 1 and 5 tie
		{"higher", 1, 2}, // the same runs, read the other way
	} {
		s := summarize(base, head, tc.better)
		if s.HeadWins != tc.headW || s.BaseWins != tc.baseW {
			t.Errorf("%s: wins head %d base %d, want %d and %d", tc.better, s.HeadWins, s.BaseWins, tc.headW, tc.baseW)
		}
		// Ratios 1, 0.5, 4/3, 0.75, 1: the median is 1.
		if s.Ratio != 1 {
			t.Errorf("%s: ratio %v, want 1", tc.better, s.Ratio)
		}
		if s.Base != [3]float64{2, 3, 4} || s.Head != [3]float64{1, 3, 4} {
			t.Errorf("%s: quartiles base %v head %v, want [2 3 4] and [1 3 4]", tc.better, s.Base, s.Head)
		}
	}
}

func TestSummarizeEdges(t *testing.T) {
	// Even count: quartiles interpolate between order statistics.
	if q := quartiles([]float64{4, 1, 3, 2}); q != [3]float64{1.75, 2.5, 3.25} {
		t.Errorf("quartiles = %v, want [1.75 2.5 3.25]", q)
	}
	// A base of 0 has no ratio; with no ratio left the ratio is 1.
	s := summarize([]float64{0, 0}, []float64{0, 2}, "lower")
	if s.Ratio != 1 || s.HeadWins != 0 || s.BaseWins != 1 {
		t.Errorf("zero base: %+v, want ratio 1, base winning one pair", s)
	}
	// One pair: every quartile is the value itself.
	if s := summarize([]float64{2}, []float64{3}, "higher"); s.Ratio != 1.5 || s.HeadWins != 1 || s.Head != [3]float64{3, 3, 3} {
		t.Errorf("one pair: %+v", s)
	}
}
