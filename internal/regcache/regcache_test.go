package regcache

import (
	"strings"
	"testing"

	"ib12x/internal/sim"
)

// testConfig keeps the numbers small enough to force eviction churn while
// staying easy to compute by hand: 4 pages of 1 KB, at most 3 entries.
func testConfig() Config {
	return Config{
		CapacityBytes:   4 << 10,
		CapacityEntries: 3,
		PageBytes:       1 << 10,
		PinPerPage:      100 * sim.Nanosecond,
		PinSyscall:      sim.Microsecond,
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(testConfig())
	buf := make([]byte, 2048)

	out := c.Register(buf, 2048)
	if out.Hit {
		t.Fatal("first registration reported a hit")
	}
	if out.NewPages != 2 {
		t.Fatalf("NewPages = %d, want 2", out.NewPages)
	}
	if want := sim.Microsecond + 2*100*sim.Nanosecond; out.Cost != want {
		t.Fatalf("miss cost = %v, want %v", out.Cost, want)
	}

	out = c.Register(buf, 2048)
	if !out.Hit || out.Cost != 0 {
		t.Fatalf("re-registration: hit=%v cost=%v, want free hit", out.Hit, out.Cost)
	}
	// A sub-range of a registered region is covered too.
	if out = c.Register(buf[512:], 1024); !out.Hit {
		t.Fatal("covered sub-range missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestOverlapCoalescesAndChargesUncoveredOnly(t *testing.T) {
	c := New(testConfig())
	buf := make([]byte, 4096)

	c.Register(buf[:2048], 2048)
	// [1024, 3072) overlaps [0, 2048): only the last 1024 bytes are new.
	out := c.Register(buf[1024:3072], 2048)
	if out.Hit {
		t.Fatal("partially covered region reported a hit")
	}
	if out.NewPages != 1 {
		t.Fatalf("NewPages = %d, want 1 (only the uncovered tail)", out.NewPages)
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d, want 1 after coalescing", c.Entries())
	}
	// The merged entry covers [0, 3072); the whole prefix now hits.
	if out = c.Register(buf[:3072], 3072); !out.Hit {
		t.Fatal("merged region not covered")
	}
	if c.PinnedBytes() != 3<<10 {
		t.Fatalf("pinned = %d, want %d", c.PinnedBytes(), 3<<10)
	}
}

func TestAdjacentRegionsDoNotCoalesce(t *testing.T) {
	c := New(testConfig())
	buf := make([]byte, 2048)
	c.Register(buf[:1024], 1024)
	c.Register(buf[1024:], 1024)
	if c.Entries() != 2 {
		t.Fatalf("entries = %d, want 2 (adjacency must not merge)", c.Entries())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(testConfig())
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	d := make([]byte, 1024)
	e := make([]byte, 2048)
	f := make([]byte, 1024)

	c.Register(a, 1024)
	c.Register(b, 1024)
	c.Register(d, 1024)
	c.Register(a, 1024) // touch a: LRU order (oldest first) is now b, d, a

	// e needs 2 of the 4 pages; 3 are pinned, so exactly the least recent
	// entry (b) must go while d and the freshly touched a survive.
	out := c.Register(e, 2048)
	if out.Evicted != 1 || out.EvictedBytes != 1024 {
		t.Fatalf("evicted %d entries / %d bytes, want 1 / 1024", out.Evicted, out.EvictedBytes)
	}
	if c.Covered(b, 1024) {
		t.Fatal("least-recently-used entry survived")
	}
	if !c.Covered(a, 1024) || !c.Covered(d, 1024) {
		t.Fatal("recently used entries were evicted")
	}

	// The next squeeze must take d — now the oldest — not a or e.
	if out = c.Register(f, 1024); out.Evicted != 1 {
		t.Fatalf("second squeeze evicted %d, want 1", out.Evicted)
	}
	if c.Covered(d, 1024) {
		t.Fatal("second eviction skipped the LRU entry")
	}
	if !c.Covered(a, 1024) || !c.Covered(e, 2048) {
		t.Fatal("second eviction took a recently used entry")
	}
}

func TestEntryCapacityEvicts(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityEntries = 2
	c := New(cfg)
	bufs := [][]byte{make([]byte, 256), make([]byte, 256), make([]byte, 256)}
	for _, b := range bufs {
		c.Register(b, 256)
	}
	if c.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", c.Entries())
	}
	if c.Register(bufs[0], 256).Hit {
		t.Fatal("oldest entry should have been evicted by the entry cap")
	}
}

func TestOversizedRegionNeverCached(t *testing.T) {
	c := New(testConfig())
	small := make([]byte, 1024)
	c.Register(small, 1024)

	big := make([]byte, 8192) // 8 pages > 4-page capacity
	for i := 0; i < 2; i++ {
		out := c.Register(big, 8192)
		if out.Hit {
			t.Fatalf("oversized registration %d reported a hit", i)
		}
		if out.NewPages != 8 {
			t.Fatalf("oversized NewPages = %d, want 8", out.NewPages)
		}
	}
	if c.Entries() != 1 || !c.Register(small, 1024).Hit {
		t.Fatal("oversized miss disturbed the live entries")
	}
	if c.PinnedBytes() > c.cfg.CapacityBytes {
		t.Fatalf("pinned %d exceeds capacity %d", c.PinnedBytes(), c.cfg.CapacityBytes)
	}
}

func TestPinnedPeakAndCounters(t *testing.T) {
	c := New(testConfig())
	a := make([]byte, 3072)
	b := make([]byte, 2048)
	c.Register(a, 3072)
	c.Register(b, 2048) // evicts a (3 pages), pins 2
	if got := c.PinnedPeak(); got != 3<<10 {
		t.Fatalf("pinned peak = %d, want %d", got, 3<<10)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	text := c.Counters().Format()
	for _, want := range []string{"pin-down registration cache", "hits", "misses", "evictions", "pinned bytes high-water"} {
		if !strings.Contains(text, want) {
			t.Errorf("counter block missing %q:\n%s", want, text)
		}
	}
}

func TestFlush(t *testing.T) {
	c := New(testConfig())
	buf := make([]byte, 1024)
	c.Register(buf, 1024)
	c.Flush()
	if c.Entries() != 0 || c.PinnedBytes() != 0 {
		t.Fatalf("flush left entries=%d pinned=%d", c.Entries(), c.PinnedBytes())
	}
	if c.Register(buf, 1024).Hit {
		t.Fatal("registration after flush reported a hit")
	}
}

func TestNilAndEmptyAreFree(t *testing.T) {
	c := New(testConfig())
	if out := c.Register(nil, 4096); !out.Hit || out.Cost != 0 {
		t.Fatal("nil buffer charged")
	}
	if out := c.Register(make([]byte, 8), 0); !out.Hit || out.Cost != 0 {
		t.Fatal("empty region charged")
	}
	if c.Misses() != 0 || c.Entries() != 0 {
		t.Fatal("degenerate registrations touched the cache")
	}
}

// TestWarmRegisterNoAllocs is the warm-rendezvous-path allocation gate: a
// cache hit — the steady state of every bandwidth loop — must not allocate.
func TestWarmRegisterNoAllocs(t *testing.T) {
	c := New(Config{})
	buf := make([]byte, 64<<10)
	c.Register(buf, len(buf))
	if avg := testing.AllocsPerRun(200, func() {
		if !c.Register(buf, len(buf)).Hit {
			t.Fatal("warm lookup missed")
		}
	}); avg != 0 {
		t.Fatalf("warm Register allocates %.1f allocs/op, want 0", avg)
	}
}
