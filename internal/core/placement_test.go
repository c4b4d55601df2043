package core

import (
	"fmt"
	"strings"
	"testing"
)

// renderPlacement renders one cell of the placement table: the rails of
// three successive eager picks, or the three successive bulk plans (1 MB,
// 12 KB, 1 MB) as rail:bytes stripes, on a fresh 4-rail connection.
func renderPlacement(p Policy, c Class, st *ConnState, bulk bool) string {
	const rails = 4
	var calls []string
	for _, size := range []int{1 << 20, 12 << 10, 1 << 20} {
		if !bulk {
			calls = append(calls, fmt.Sprint(p.PickEager(c, 64, rails, st)))
			continue
		}
		var stripes []string
		for _, s := range p.PlanBulk(c, size, rails, st) {
			stripes = append(stripes, fmt.Sprintf("%d:%d", s.Rail, s.N))
		}
		calls = append(calls, strings.Join(stripes, ","))
	}
	return strings.Join(calls, " ")
}

// TestPolicyPlacementTable pins where every policy puts a transfer: each
// kind (and one explicitly weighted policy) × class × pipeline depth ×
// eager/bulk, with every rail live and with rail 0 dead. Each row is
// "policy class depth op dead: three successive placements".
func TestPolicyPlacementTable(t *testing.T) {
	policies := []struct {
		name string
		new  func() Policy
	}{
		{"original", func() Policy { return New(Original, 4096) }},
		{"binding", func() Policy { return New(Binding, 4096) }},
		{"rr", func() Policy { return New(RoundRobin, 4096) }},
		{"striping", func() Policy { return New(EvenStriping, 4096) }},
		{"weighted", func() Policy { return New(WeightedStriping, 4096) }},
		{"weighted3121", func() Policy { return NewWeighted(4096, []float64{3, 1, 2, 1}) }},
		{"epc", func() Policy { return New(EPC, 4096) }},
		{"adaptive", func() Policy { return New(Adaptive, 4096) }},
	}
	var rows []string
	for _, pol := range policies {
		for _, c := range []Class{Blocking, NonBlocking, Collective} {
			for _, depth := range []int{0, 3} {
				for _, bulk := range []bool{false, true} {
					for _, deadRail := range []int{-1, 0} {
						st := &ConnState{Outstanding: depth}
						st.Dead.MarkDown(deadRail)
						op, dead := "eager", "none"
						if bulk {
							op = "bulk"
						}
						if deadRail >= 0 {
							dead = "rail0"
						}
						rows = append(rows, fmt.Sprintf("%s %s %d %s %s: %s",
							pol.name, c, depth, op, dead, renderPlacement(pol.new(), c, st, bulk)))
					}
				}
			}
		}
	}
	want := strings.Split(strings.TrimSpace(placementTable), "\n")
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("got  %s\nwant %s", rows[i], want[i])
		}
	}
}

const placementTable = `
original blocking 0 eager none: 0 0 0
original blocking 0 eager rail0: 1 1 1
original blocking 0 bulk none: 0:1048576 0:12288 0:1048576
original blocking 0 bulk rail0: 1:1048576 1:12288 1:1048576
original blocking 3 eager none: 0 0 0
original blocking 3 eager rail0: 1 1 1
original blocking 3 bulk none: 0:1048576 0:12288 0:1048576
original blocking 3 bulk rail0: 1:1048576 1:12288 1:1048576
original non-blocking 0 eager none: 0 0 0
original non-blocking 0 eager rail0: 1 1 1
original non-blocking 0 bulk none: 0:1048576 0:12288 0:1048576
original non-blocking 0 bulk rail0: 1:1048576 1:12288 1:1048576
original non-blocking 3 eager none: 0 0 0
original non-blocking 3 eager rail0: 1 1 1
original non-blocking 3 bulk none: 0:1048576 0:12288 0:1048576
original non-blocking 3 bulk rail0: 1:1048576 1:12288 1:1048576
original collective 0 eager none: 0 0 0
original collective 0 eager rail0: 1 1 1
original collective 0 bulk none: 0:1048576 0:12288 0:1048576
original collective 0 bulk rail0: 1:1048576 1:12288 1:1048576
original collective 3 eager none: 0 0 0
original collective 3 eager rail0: 1 1 1
original collective 3 bulk none: 0:1048576 0:12288 0:1048576
original collective 3 bulk rail0: 1:1048576 1:12288 1:1048576
binding blocking 0 eager none: 0 0 0
binding blocking 0 eager rail0: 1 1 1
binding blocking 0 bulk none: 0:1048576 0:12288 0:1048576
binding blocking 0 bulk rail0: 1:1048576 1:12288 1:1048576
binding blocking 3 eager none: 0 0 0
binding blocking 3 eager rail0: 1 1 1
binding blocking 3 bulk none: 0:1048576 0:12288 0:1048576
binding blocking 3 bulk rail0: 1:1048576 1:12288 1:1048576
binding non-blocking 0 eager none: 0 0 0
binding non-blocking 0 eager rail0: 1 1 1
binding non-blocking 0 bulk none: 0:1048576 0:12288 0:1048576
binding non-blocking 0 bulk rail0: 1:1048576 1:12288 1:1048576
binding non-blocking 3 eager none: 0 0 0
binding non-blocking 3 eager rail0: 1 1 1
binding non-blocking 3 bulk none: 0:1048576 0:12288 0:1048576
binding non-blocking 3 bulk rail0: 1:1048576 1:12288 1:1048576
binding collective 0 eager none: 0 0 0
binding collective 0 eager rail0: 1 1 1
binding collective 0 bulk none: 0:1048576 0:12288 0:1048576
binding collective 0 bulk rail0: 1:1048576 1:12288 1:1048576
binding collective 3 eager none: 0 0 0
binding collective 3 eager rail0: 1 1 1
binding collective 3 bulk none: 0:1048576 0:12288 0:1048576
binding collective 3 bulk rail0: 1:1048576 1:12288 1:1048576
rr blocking 0 eager none: 0 1 2
rr blocking 0 eager rail0: 1 2 3
rr blocking 0 bulk none: 0:1048576 1:12288 2:1048576
rr blocking 0 bulk rail0: 1:1048576 2:12288 3:1048576
rr blocking 3 eager none: 0 1 2
rr blocking 3 eager rail0: 1 2 3
rr blocking 3 bulk none: 0:1048576 1:12288 2:1048576
rr blocking 3 bulk rail0: 1:1048576 2:12288 3:1048576
rr non-blocking 0 eager none: 0 1 2
rr non-blocking 0 eager rail0: 1 2 3
rr non-blocking 0 bulk none: 0:1048576 1:12288 2:1048576
rr non-blocking 0 bulk rail0: 1:1048576 2:12288 3:1048576
rr non-blocking 3 eager none: 0 1 2
rr non-blocking 3 eager rail0: 1 2 3
rr non-blocking 3 bulk none: 0:1048576 1:12288 2:1048576
rr non-blocking 3 bulk rail0: 1:1048576 2:12288 3:1048576
rr collective 0 eager none: 0 1 2
rr collective 0 eager rail0: 1 2 3
rr collective 0 bulk none: 0:1048576 1:12288 2:1048576
rr collective 0 bulk rail0: 1:1048576 2:12288 3:1048576
rr collective 3 eager none: 0 1 2
rr collective 3 eager rail0: 1 2 3
rr collective 3 bulk none: 0:1048576 1:12288 2:1048576
rr collective 3 bulk rail0: 1:1048576 2:12288 3:1048576
striping blocking 0 eager none: 0 0 0
striping blocking 0 eager rail0: 1 1 1
striping blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
striping blocking 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
striping blocking 3 eager none: 0 0 0
striping blocking 3 eager rail0: 1 1 1
striping blocking 3 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
striping blocking 3 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
striping non-blocking 0 eager none: 0 0 0
striping non-blocking 0 eager rail0: 1 1 1
striping non-blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
striping non-blocking 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
striping non-blocking 3 eager none: 0 0 0
striping non-blocking 3 eager rail0: 1 1 1
striping non-blocking 3 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
striping non-blocking 3 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
striping collective 0 eager none: 0 0 0
striping collective 0 eager rail0: 1 1 1
striping collective 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
striping collective 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
striping collective 3 eager none: 0 0 0
striping collective 3 eager rail0: 1 1 1
striping collective 3 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
striping collective 3 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
weighted blocking 0 eager none: 0 0 0
weighted blocking 0 eager rail0: 1 1 1
weighted blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 1:4096,2:4096,3:4096 0:262144,1:262144,2:262144,3:262144
weighted blocking 0 bulk rail0: 1:349525,2:349525,3:349526 1:4096,2:4096,3:4096 1:349525,2:349525,3:349526
weighted blocking 3 eager none: 0 0 0
weighted blocking 3 eager rail0: 1 1 1
weighted blocking 3 bulk none: 0:262144,1:262144,2:262144,3:262144 1:4096,2:4096,3:4096 0:262144,1:262144,2:262144,3:262144
weighted blocking 3 bulk rail0: 1:349525,2:349525,3:349526 1:4096,2:4096,3:4096 1:349525,2:349525,3:349526
weighted non-blocking 0 eager none: 0 0 0
weighted non-blocking 0 eager rail0: 1 1 1
weighted non-blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 1:4096,2:4096,3:4096 0:262144,1:262144,2:262144,3:262144
weighted non-blocking 0 bulk rail0: 1:349525,2:349525,3:349526 1:4096,2:4096,3:4096 1:349525,2:349525,3:349526
weighted non-blocking 3 eager none: 0 0 0
weighted non-blocking 3 eager rail0: 1 1 1
weighted non-blocking 3 bulk none: 0:262144,1:262144,2:262144,3:262144 1:4096,2:4096,3:4096 0:262144,1:262144,2:262144,3:262144
weighted non-blocking 3 bulk rail0: 1:349525,2:349525,3:349526 1:4096,2:4096,3:4096 1:349525,2:349525,3:349526
weighted collective 0 eager none: 0 0 0
weighted collective 0 eager rail0: 1 1 1
weighted collective 0 bulk none: 0:262144,1:262144,2:262144,3:262144 1:4096,2:4096,3:4096 0:262144,1:262144,2:262144,3:262144
weighted collective 0 bulk rail0: 1:349525,2:349525,3:349526 1:4096,2:4096,3:4096 1:349525,2:349525,3:349526
weighted collective 3 eager none: 0 0 0
weighted collective 3 eager rail0: 1 1 1
weighted collective 3 bulk none: 0:262144,1:262144,2:262144,3:262144 1:4096,2:4096,3:4096 0:262144,1:262144,2:262144,3:262144
weighted collective 3 bulk rail0: 1:349525,2:349525,3:349526 1:4096,2:4096,3:4096 1:349525,2:349525,3:349526
weighted3121 blocking 0 eager none: 0 0 0
weighted3121 blocking 0 eager rail0: 1 1 1
weighted3121 blocking 0 bulk none: 0:449389,1:149796,2:299593,3:149798 0:7372,2:4916 0:449389,1:149796,2:299593,3:149798
weighted3121 blocking 0 bulk rail0: 1:262144,2:524288,3:262144 2:8192,3:4096 1:262144,2:524288,3:262144
weighted3121 blocking 3 eager none: 0 0 0
weighted3121 blocking 3 eager rail0: 1 1 1
weighted3121 blocking 3 bulk none: 0:449389,1:149796,2:299593,3:149798 0:7372,2:4916 0:449389,1:149796,2:299593,3:149798
weighted3121 blocking 3 bulk rail0: 1:262144,2:524288,3:262144 2:8192,3:4096 1:262144,2:524288,3:262144
weighted3121 non-blocking 0 eager none: 0 0 0
weighted3121 non-blocking 0 eager rail0: 1 1 1
weighted3121 non-blocking 0 bulk none: 0:449389,1:149796,2:299593,3:149798 0:7372,2:4916 0:449389,1:149796,2:299593,3:149798
weighted3121 non-blocking 0 bulk rail0: 1:262144,2:524288,3:262144 2:8192,3:4096 1:262144,2:524288,3:262144
weighted3121 non-blocking 3 eager none: 0 0 0
weighted3121 non-blocking 3 eager rail0: 1 1 1
weighted3121 non-blocking 3 bulk none: 0:449389,1:149796,2:299593,3:149798 0:7372,2:4916 0:449389,1:149796,2:299593,3:149798
weighted3121 non-blocking 3 bulk rail0: 1:262144,2:524288,3:262144 2:8192,3:4096 1:262144,2:524288,3:262144
weighted3121 collective 0 eager none: 0 0 0
weighted3121 collective 0 eager rail0: 1 1 1
weighted3121 collective 0 bulk none: 0:449389,1:149796,2:299593,3:149798 0:7372,2:4916 0:449389,1:149796,2:299593,3:149798
weighted3121 collective 0 bulk rail0: 1:262144,2:524288,3:262144 2:8192,3:4096 1:262144,2:524288,3:262144
weighted3121 collective 3 eager none: 0 0 0
weighted3121 collective 3 eager rail0: 1 1 1
weighted3121 collective 3 bulk none: 0:449389,1:149796,2:299593,3:149798 0:7372,2:4916 0:449389,1:149796,2:299593,3:149798
weighted3121 collective 3 bulk rail0: 1:262144,2:524288,3:262144 2:8192,3:4096 1:262144,2:524288,3:262144
epc blocking 0 eager none: 0 0 0
epc blocking 0 eager rail0: 1 1 1
epc blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
epc blocking 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
epc blocking 3 eager none: 0 0 0
epc blocking 3 eager rail0: 1 1 1
epc blocking 3 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
epc blocking 3 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
epc non-blocking 0 eager none: 0 1 2
epc non-blocking 0 eager rail0: 1 2 3
epc non-blocking 0 bulk none: 0:1048576 1:12288 2:1048576
epc non-blocking 0 bulk rail0: 1:1048576 2:12288 3:1048576
epc non-blocking 3 eager none: 0 1 2
epc non-blocking 3 eager rail0: 1 2 3
epc non-blocking 3 bulk none: 0:1048576 1:12288 2:1048576
epc non-blocking 3 bulk rail0: 1:1048576 2:12288 3:1048576
epc collective 0 eager none: 0 1 2
epc collective 0 eager rail0: 1 2 3
epc collective 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
epc collective 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
epc collective 3 eager none: 0 1 2
epc collective 3 eager rail0: 1 2 3
epc collective 3 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
epc collective 3 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
adaptive blocking 0 eager none: 0 0 0
adaptive blocking 0 eager rail0: 1 1 1
adaptive blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
adaptive blocking 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
adaptive blocking 3 eager none: 0 1 2
adaptive blocking 3 eager rail0: 1 2 3
adaptive blocking 3 bulk none: 0:1048576 1:12288 2:1048576
adaptive blocking 3 bulk rail0: 1:1048576 2:12288 3:1048576
adaptive non-blocking 0 eager none: 0 0 0
adaptive non-blocking 0 eager rail0: 1 1 1
adaptive non-blocking 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
adaptive non-blocking 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
adaptive non-blocking 3 eager none: 0 1 2
adaptive non-blocking 3 eager rail0: 1 2 3
adaptive non-blocking 3 bulk none: 0:1048576 1:12288 2:1048576
adaptive non-blocking 3 bulk rail0: 1:1048576 2:12288 3:1048576
adaptive collective 0 eager none: 0 0 0
adaptive collective 0 eager rail0: 1 1 1
adaptive collective 0 bulk none: 0:262144,1:262144,2:262144,3:262144 0:4096,1:4096,2:4096 0:262144,1:262144,2:262144,3:262144
adaptive collective 0 bulk rail0: 1:349526,2:349525,3:349525 1:4096,2:4096,3:4096 1:349526,2:349525,3:349525
adaptive collective 3 eager none: 0 1 2
adaptive collective 3 eager rail0: 1 2 3
adaptive collective 3 bulk none: 0:1048576 1:12288 2:1048576
adaptive collective 3 bulk rail0: 1:1048576 2:12288 3:1048576
`
