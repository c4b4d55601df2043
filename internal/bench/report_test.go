package bench

import (
	"strings"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

func TestReportFormatsUtilization(t *testing.T) {
	var end sim.Time
	rep, err := mpi.Run(mpi.Config{QPsPerPort: 4, Policy: core.EPC}, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.SendN(1, 0, nil, 256*1024)
			end = c.Time()
		} else {
			c.RecvN(0, 0, nil, 256*1024)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := Report(rep.World, end)
	for _, want := range []string{
		"run length", "GX+", "send engines", "recv engines",
		"tx lane", "scheduler", "rank 0", "rendezvous 1", "stripes w/r 4/0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "-1") {
		t.Errorf("report contains garbage:\n%s", out)
	}
}
