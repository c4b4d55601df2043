package main

import (
	"testing"

	"ib12x/internal/bench"
	"ib12x/internal/core"
)

func TestDispatchAllTests(t *testing.T) {
	s := bench.Setup{QPs: 2, Policy: core.EPC}
	cases := []struct {
		test string
		unit string
	}{
		{"latency", "us"},
		{"unibw", "MB/s"},
		{"bibw", "MB/s"},
		{"alltoall", "us"},
		{"bcast", "us"},
		{"allgather", "us"},
		{"allreduce", "us"},
	}
	for _, c := range cases {
		setup := s
		if c.test == "alltoall" || c.test == "bcast" || c.test == "allgather" || c.test == "allreduce" {
			setup.Job.ProcsPerNode = 2
		}
		vals, unit, err := dispatch(c.test, setup, []int{4096}, 16, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.test, err)
		}
		if unit != c.unit || len(vals) != 1 || vals[0] <= 0 {
			t.Errorf("%s: vals=%v unit=%q", c.test, vals, unit)
		}
	}
	if _, _, err := dispatch("bogus", s, []int{1}, 1, 1, 1); err == nil {
		t.Error("bogus test accepted")
	}
}
