package chaos

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/regcache"
)

// regCacheConfig sizes the cache small enough that the oracle workload's
// rendezvous and one-sided phases churn it: a 256 KB / 8-entry budget forces
// real evictions under the seeded buffer mix, so the array exercises miss,
// hit, coalesce and evict paths rather than an always-warm cache.
func regCacheConfig() *regcache.Config {
	return &regcache.Config{CapacityBytes: 256 << 10, CapacityEntries: 8}
}

// TestRegCacheOracleEvicts pins that the chosen capacity really forces
// evictions (otherwise the oracle array only tests the warm path) and that
// the registration charge moves the virtual clock.
func TestRegCacheOracleEvicts(t *testing.T) {
	base := conform(t, mpi.Config{Policy: core.EvenStriping, Chaos: NoFaults()})
	res := conform(t, mpi.Config{
		Policy: core.EvenStriping, Chaos: NoFaults(), RegCache: regCacheConfig(),
	})
	if res.RegEvictions == 0 {
		t.Errorf("no evictions under the 256KB/8-entry budget (misses=%d): array is warm-only", res.RegMisses)
	}
	if res.RegPinnedPeak <= 0 || res.RegPinnedPeak > 256<<10 {
		t.Errorf("pinned high-water %d outside (0, 256KB]", res.RegPinnedPeak)
	}
	if res.Elapsed <= base.Elapsed {
		t.Errorf("registration charges did not slow the run: %v (cached) vs %v (free)", res.Elapsed, base.Elapsed)
	}
}
