package bench

import (
	"fmt"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/stats"
)

// IntegrityOverheadTable prices the end-to-end checksum model (DESIGN.md
// §17) on uni-directional bandwidth: the machinery off, in audit mode
// (checksums carried for self-checking, never charged), and fully armed
// (capture and verify passes charged at ChecksumCost + size/ChecksumRate).
// The generator enforces one invariant while it measures: audit mode is
// bit-identical to off — the mode only observes.
func IntegrityOverheadTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	sizes := []int{1024, 16 * 1024, 256 * 1024, 1 << 20}
	var cols []column
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.RoundRobin},
		{QPs: 4, Policy: core.EPC},
	} {
		for _, m := range []adi.IntegrityMode{adi.IntegrityOff, adi.IntegrityAudit, adi.IntegrityVerify} {
			s.Job.Integrity = m
			cols = append(cols, column{name: s.Label() + " " + m.String(), s: s})
		}
	}
	t, err := table("Supplementary: end-to-end integrity overhead, uni-directional bandwidth", "Size", "MB/s",
		cols, sizes, o.bw().uniBW)
	if err != nil {
		return nil, err
	}
	// Columns run off, audit, verify per setup.
	for i := 0; i < len(t.Series); i += 3 {
		off, audit := t.Series[i], t.Series[i+1]
		for j, p := range audit.Points {
			if p.Value != off.Points[j].Value {
				return nil, fmt.Errorf("integrity: audit mode moved %s at %d bytes (%.6f vs %.6f MB/s)",
					cols[i].s.Label(), p.X, p.Value, off.Points[j].Value)
			}
		}
	}
	return t, nil
}
