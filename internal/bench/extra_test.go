package bench

import (
	"strings"
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/fabric"
)

func TestCollectiveKindString(t *testing.T) {
	want := map[CollKind]string{
		CollBcast: "Bcast", CollAllgather: "Allgather",
		CollAllreduce: "Allreduce", CollAlltoall: "Alltoall",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestCollectiveSweepsRun(t *testing.T) {
	for _, kind := range []CollKind{CollBcast, CollAllgather, CollAllreduce, CollAlltoall} {
		v, err := Collective(kind, Setup{QPs: 2, Policy: core.EPC, PPN: 2}, []int{4096, 65536}, 3, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if v[0] <= 0 || v[1] <= v[0] {
			t.Errorf("%v: times %v not positive/increasing", kind, v)
		}
	}
	// An unknown kind is an error naming it, not a panic inside a rank.
	if _, err := Collective(CollKind(9), Setup{QPs: 2, Policy: core.EPC, PPN: 2}, []int{4096}, 3, 1); err == nil || !strings.Contains(err.Error(), "CollKind(9)") {
		t.Errorf("unknown collective: err = %v, want an error naming CollKind(9)", err)
	}
}

func TestCollectiveTableComplete(t *testing.T) {
	tbl, err := CollectiveTable(CollBcast, quick)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Format()
	if !strings.Contains(out, "Bcast") || !strings.Contains(out, "EPC 4QP") {
		t.Errorf("table incomplete:\n%s", out)
	}
}

func TestStencilPolicySeparation(t *testing.T) {
	// On a 4-node torus with one active connection per link, blocking
	// halo exchanges separate the striping policies from the rest.
	orig, err := Stencil(Setup{QPs: 1, Policy: core.Original, Nodes: 4}, 512<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	epc, err := Stencil(Setup{QPs: 4, Policy: core.EPC, Nodes: 4}, 512<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if epc >= 0.9*orig {
		t.Errorf("stencil: EPC %.0fus/iter not clearly faster than original %.0fus/iter", epc, orig)
	}
}

func TestScalingTableShape(t *testing.T) {
	tbl, err := ScalingTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	epc := tbl.Get("EPC 4QP")
	orig := tbl.Get("original (1 QP/port)")
	if epc == nil || orig == nil {
		t.Fatal("missing series")
	}
	for _, nodes := range []int{2, 4, 8, 16} {
		e, ok1 := epc.At(nodes)
		o, ok2 := orig.At(nodes)
		if !ok1 || !ok2 {
			t.Fatalf("missing node count %d", nodes)
		}
		// A ring exchange is per-link traffic: EPC stays ahead at every
		// scale (each link carries one blocking transfer per direction).
		if e >= o {
			t.Errorf("%d nodes: EPC %.0fus not faster than original %.0fus", nodes, e, o)
		}
	}
}

func TestRendezvousProtocolsComparable(t *testing.T) {
	tbl, err := RendezvousTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	put := tbl.Get("RPUT (sender writes)")
	get := tbl.Get("RGET (receiver reads)")
	if put == nil || get == nil {
		t.Fatal("missing series")
	}
	pv, _ := put.At(1 << 20)
	gv, _ := get.At(1 << 20)
	if d := (gv - pv) / pv; d > 0.15 || d < -0.15 {
		t.Errorf("RGET %.0f vs RPUT %.0f MB/s at 1MB: should be within 15%%", gv, pv)
	}
	// RPUT is the default protocol, so its column is the same measurement
	// as every other EPC 4QP uni-directional bandwidth cell.
	hca, err := HCAGenerationTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	epc := hca.Get("12x GX+ EPC 4QP")
	for _, n := range []int{16 * 1024, 256 * 1024, 1 << 20} {
		pv, ok1 := put.At(n)
		ev, ok2 := epc.At(n)
		if !ok1 || !ok2 || pv != ev {
			t.Errorf("%d bytes: RPUT %.4f MB/s, 12x GX+ EPC 4QP %.4f MB/s: must be the same cell", n, pv, ev)
		}
	}
}

func TestNoDegradationTable(t *testing.T) {
	tbl, err := NoDegradationTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"ep.S", "cg.S", "cg.A"} {
		s := tbl.Get(kernel)
		if s == nil {
			t.Fatalf("missing column %q:\n%s", kernel, tbl.Format())
		}
		o, ok1 := s.At(1)
		e, ok2 := s.At(4)
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing original or EPC row", kernel)
		}
		if e > 1.02*o {
			t.Errorf("%s: EPC %.4fs degrades over original %.4fs", kernel, e, o)
		}
	}
}

// TestOversubscriptionTableShape pins the issue's acceptance bar for the
// routed-fabric table: adaptive throughput ≥ static at every cell (exact
// equality allowed — the 4:1 tree has a single spine plane, so there is
// nothing to select), strictly better where a degraded plane leaves path
// diversity to exploit, and the 1:1 clean adaptive tree within noise of
// the flat single-switch reference.
func TestOversubscriptionTableShape(t *testing.T) {
	tbl, err := OversubscriptionTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	get := func(series string, x int) float64 {
		t.Helper()
		s := tbl.Get(series)
		if s == nil {
			t.Fatalf("missing series %q", series)
		}
		v, ok := s.At(x)
		if !ok {
			t.Fatalf("series %q missing x=%d", series, x)
		}
		return v
	}
	rows := []int{1, 2, 4, 8}
	for _, cond := range []string{"clean", "degraded"} {
		for _, x := range rows {
			st, ad := get("static "+cond, x), get("adaptive "+cond, x)
			if ad < st*(1-1e-9) {
				t.Errorf("x=%d %s: adaptive %.2f MB/s below static %.2f", x, cond, ad, st)
			}
		}
	}
	// Degraded cells with path diversity (every row but the 4:1 tree) must
	// show a strict adaptive win: static keeps hashing onto the slow plane.
	for _, x := range []int{1, 2, 8} {
		st, ad := get("static degraded", x), get("adaptive degraded", x)
		if ad <= st {
			t.Errorf("x=%d degraded: adaptive %.2f MB/s does not beat static %.2f", x, ad, st)
		}
	}
	// Oversubscription must still throttle: the clean 4:1 tree is well
	// below the clean 1:1 tree under either routing.
	if v1, v4 := get("adaptive clean", 1), get("adaptive clean", 4); v4 > v1/2 {
		t.Errorf("4:1 clean %.2f MB/s not ≤ half of 1:1 clean %.2f", v4, v1)
	}
	// The 1:1 clean tree delivers the bulk of the flat crossbar's bisection
	// (exact parity is impossible at critical load: per-chunk least-loaded
	// assignment over discrete lanes leaves scheduling gaps a single ideal
	// switch does not have — a single-spine two-level tree loses more).
	flat, tree := get("flat", 1), get("adaptive clean", 1)
	if tree < 0.75*flat || tree > 1.02*flat {
		t.Errorf("1:1 clean adaptive %.2f MB/s out of range of flat %.2f", tree, flat)
	}
}

// TestThreeTierFig06WithinNoise is the literal Fig06 acceptance check: the
// paper's uni-directional bandwidth sweep run over an uncontended 1:1
// three-tier tree (2 nodes, 1 per leaf) must land within noise of the flat
// single-switch fabric at every size — per-switch routing costs hop latency
// only, never bandwidth, when the trunks are not oversubscribed.
func TestThreeTierFig06WithinNoise(t *testing.T) {
	sizes := []int{4096, 65536, 1 << 20}
	base := Setup{QPs: 4, Policy: core.EPC}
	flat, err := UniBandwidth(base, sizes, quick.Window, quick.BWIters, quick.BWWarmup)
	if err != nil {
		t.Fatal(err)
	}
	treeSetup := base
	treeSetup.NodesPerSwitch = 1
	treeSetup.Tiers = 3
	treeSetup.SpinesPerPod = 2
	treeSetup.Routing = fabric.RouteAdaptive
	tree, err := UniBandwidth(treeSetup, sizes, quick.Window, quick.BWIters, quick.BWWarmup)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		if tree[i] < 0.95*flat[i] || tree[i] > 1.001*flat[i] {
			t.Errorf("size %d: three-tier %.2f MB/s vs flat %.2f — not within noise", n, tree[i], flat[i])
		}
	}
}

func TestHCAGenerationTable(t *testing.T) {
	tbl, err := HCAGenerationTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	at := func(series string, n int) float64 {
		s := tbl.Get(series)
		if s == nil {
			t.Fatalf("missing series %q", series)
		}
		v, ok := s.At(n)
		if !ok {
			t.Fatalf("missing %d in %q", n, series)
		}
		return v
	}
	// The 8x PCIe generation peaks well below the 12x GX+ part, and its
	// host interface caps multi-QP gains (the paper's motivation).
	pcieBest := at("8x PCIe EPC 2QP", 1<<20)
	gxBest := at("12x GX+ EPC 4QP", 1<<20)
	if pcieBest >= 1600 {
		t.Errorf("8x PCIe peak = %.0f MB/s, should stay below ~1.5 GB/s", pcieBest)
	}
	if gxBest < 1.7*pcieBest {
		t.Errorf("12x (%.0f) should lead 8x (%.0f) by well over 1.7x", gxBest, pcieBest)
	}
	// Multi-QP still helps the 8x part a little (2 engines), but the bus cap binds.
	pcieOrig := at("8x PCIe original", 1<<20)
	if pcieBest < pcieOrig {
		t.Errorf("8x EPC (%.0f) below its original (%.0f)", pcieBest, pcieOrig)
	}
}
