package bench

import (
	"ib12x/internal/core"
	"ib12x/internal/regcache"
	"ib12x/internal/stats"
)

// regWindow is the isend window of the registration-cache sweep. It is
// smaller than the paper's bandwidth window because the cold mode keeps
// `regRotate` full buffer sets live per rank (64 × 1 MB × 2 would dwarf the
// working sets under study).
const regWindow = 8

// regRotate is the number of distinct buffer sets the cold mode cycles
// through. The cache capacity holds exactly one set, so with two sets every
// post-warmup iteration re-pins its entire window — the cache-cold floor.
const regRotate = 2

// regMode is one column of the registration-cache table.
type regMode struct {
	name   string
	rotate int  // distinct buffer sets cycled per iteration
	cached bool // pin-down cache armed
}

var regModes = []regMode{
	{"registration free (baseline)", 1, false},
	{"pin-down cache, warm", 1, true},
	{"pin-down cache, cold", regRotate, true},
}

// RegCacheTable reproduces the cache-cold vs cache-warm bandwidth split of
// the pin-down cache (Liu et al.) over the Figure 6 message sizes: a
// registration-free baseline, a warm pass reusing one buffer set (steady
// state all hits — it must match the baseline), and a cold pass cycling two
// buffer sets through a cache sized for one (steady state all misses, every
// iteration re-paying the per-page pin cost and syscall latency).
func RegCacheTable(o FigOpts) (*stats.Table, error) {
	o = o.defaults()
	var cols []column
	for _, mode := range regModes {
		cols = append(cols, column{name: mode.name, s: Setup{QPs: 4, Policy: core.EPC},
			at: func(s Setup, n int) (float64, error) {
				if mode.cached {
					// Capacity = exactly one window's worth of page-rounded
					// buffers: the warm set fits whole; the cold rotation evicts.
					s.RegCache = &regcache.Config{CapacityBytes: regWindow * pageRound(n)}
				}
				// Real payloads: the registration model ignores synthetic ones.
				return loop{iters: o.BWIters, warmup: o.BWWarmup, window: regWindow, sets: mode.rotate}.uniBW(s, n)
			}})
	}
	return table("Supplementary: uni-directional bandwidth vs registration cache state (EPC 4QP)", "Size", "MB/s",
		cols, largeSizes, nil)
}

// pageRound rounds n up to the cache's default 4 KB pin granularity.
func pageRound(n int) int64 {
	const pg = 4096
	return int64((n + pg - 1) / pg * pg)
}
