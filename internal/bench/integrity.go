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
	t := &stats.Table{
		Title:  "Supplementary: end-to-end integrity overhead, uni-directional bandwidth",
		XLabel: "Size", Unit: "MB/s",
	}
	for _, s := range []Setup{
		{QPs: 1, Policy: core.Original},
		{QPs: 4, Policy: core.RoundRobin},
		{QPs: 4, Policy: core.EPC},
	} {
		var off []float64
		for _, m := range []adi.IntegrityMode{adi.IntegrityOff, adi.IntegrityAudit, adi.IntegrityVerify} {
			s := s
			s.Integrity = m
			vals, err := UniBandwidth(s, sizes, o.Window, o.BWIters, o.BWWarmup)
			if err != nil {
				return nil, err
			}
			switch m {
			case adi.IntegrityOff:
				off = vals
			case adi.IntegrityAudit:
				for i := range vals {
					if vals[i] != off[i] {
						return nil, fmt.Errorf("integrity: audit mode moved %s at %d bytes (%.6f vs %.6f MB/s)",
							s.Label(), sizes[i], vals[i], off[i])
					}
				}
			}
			addSweep(t, s.Label()+" "+m.String(), sizes, vals)
		}
	}
	return t, nil
}
