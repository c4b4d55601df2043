// Package core implements the paper's primary contribution: communication
// scheduling of MPI messages over multiple rails — multiple QPs per port,
// multiple ports, multiple HCAs — on the IBM 12x InfiniBand HCA.
//
// It provides the communication-pattern classes recognised by the ADI-layer
// communication marker (§3.3), the scheduling policies studied in §3.2
// (binding, round robin, even striping) plus the proposed EPC policy, and
// the stripe planner that divides rendezvous messages across rails.
package core

import (
	"fmt"
	"strings"
)

// Class is the communication pattern of a message, as determined by the
// communication marker in the ADI layer (paper §3.3). EPC dispatches on it.
// One byte: it rides every request and envelope.
type Class uint8

// Communication classes.
const (
	// Blocking is point-to-point blocking communication: one message
	// outstanding between the pair, so intra-message parallelism
	// (striping) is the only way to engage several DMA engines.
	Blocking Class = iota
	// NonBlocking is point-to-point non-blocking communication: a window
	// of outstanding messages supplies inter-message parallelism, so
	// placing each whole message on the next rail avoids per-stripe costs.
	NonBlocking
	// Collective marks transfers issued from inside a collective
	// algorithm. The calls are non-blocking, but each algorithm step
	// completes before the next begins, so per-peer concurrency is ~1 and
	// striping is again what fills the engines (§3.2.2).
	Collective
)

func (c Class) String() string {
	switch c {
	case Blocking:
		return "blocking"
	case NonBlocking:
		return "non-blocking"
	case Collective:
		return "collective"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Stripe is one piece of a bulk-transfer plan: N bytes at offset Off of the
// message, carried on rail Rail.
type Stripe struct {
	Rail int
	Off  int
	N    int
}

// RailMask is a bitmask of dead rails on a connection. The zero value means
// every rail is healthy, so fault-free runs never pay for health checks.
// Rail indices ≥ MaxRails are treated as always healthy; topo.Spec.Validate
// rejects shapes that wide, so none reaches a connection.
type RailMask uint64

// MaxRails is the widest rail set a RailMask can track.
const MaxRails = 64

// IsDown reports whether rail r is marked dead.
func (m RailMask) IsDown(r int) bool {
	return r >= 0 && r < MaxRails && m&(1<<uint(r)) != 0
}

// MarkDown records rail r as dead.
func (m *RailMask) MarkDown(r int) {
	if r >= 0 && r < MaxRails {
		*m |= 1 << uint(r)
	}
}

// MarkUp records rail r as healthy again.
func (m *RailMask) MarkUp(r int) {
	if r >= 0 && r < MaxRails {
		*m &^= 1 << uint(r)
	}
}

// NextLive returns the first healthy rail at or after from, searching
// cyclically over rails entries, or -1 if every rail is dead.
func (m RailMask) NextLive(from, rails int) int {
	if rails <= 0 {
		return -1
	}
	if from < 0 || from >= rails {
		from = 0
	}
	for k := 0; k < rails; k++ {
		r := from + k
		if r >= rails {
			r -= rails
		}
		if !m.IsDown(r) {
			return r
		}
	}
	return -1
}

// LiveCount reports how many of the first rails rails are healthy.
func (m RailMask) LiveCount(rails int) int {
	n := 0
	for r := 0; r < rails; r++ {
		if !m.IsDown(r) {
			n++
		}
	}
	return n
}

// LiveRails appends the healthy rail indices (ascending) to buf.
func (m RailMask) LiveRails(rails int, buf []int) []int {
	for r := 0; r < rails; r++ {
		if !m.IsDown(r) {
			buf = append(buf, r)
		}
	}
	return buf
}

// ConnState is the per-connection scheduling state a policy may read and
// update: the round-robin cursor and the live outstanding-transfer count the
// ADI layer maintains.
type ConnState struct {
	// RR is the round-robin cursor: index of the next rail to use.
	RR int
	// Outstanding is the number of bulk transfers currently in flight on
	// this connection (maintained by the ADI layer; consumed by the
	// adaptive policy).
	Outstanding int

	// Dead is the connection's rail health mask (maintained by the ADI
	// layer under fault injection). Policies route around dead rails: the
	// bound rail steps to the next live rail, round robin skips dead ones,
	// and the striping planners re-plan over the survivors.
	Dead RailMask

	// Rates, when not empty, is each rail's current link-rate scale
	// relative to the nominal rate (1.0 = healthy; the ADI layer refreshes
	// it from hca.Port.EffectiveRate before bulk planning). The weighted
	// planner multiplies its configured weights by it, so a chaos-degraded
	// but alive rail carries proportionally less traffic. Empty means
	// uniform — the fault-free fast path, which keeps the memoized plan
	// cache valid.
	Rates []float64

	// scratch backs whole-message (single-stripe) plans so the policies
	// that place one stripe per call return it without allocating.
	scratch [1]Stripe
}

// single returns a one-stripe plan covering the whole message, backed by the
// connection's scratch slot (valid until the next PlanBulk on this conn).
func (st *ConnState) single(rail, size int) []Stripe {
	st.scratch[0] = Stripe{Rail: rail, Off: 0, N: size}
	return st.scratch[:1]
}

// Policy decides rail placement for a connection's messages.
//
// PickEager places a message that travels whole (below the striping
// threshold). PlanBulk returns the stripe plan for a message at or above
// the threshold; plans cover the message exactly, in offset order.
//
// The returned plan is owned by the policy/connection: it is valid only
// until the next PlanBulk call on the same connection and must not be
// mutated or retained (plans are served from a memoization cache or a
// per-connection scratch slot so steady-state bulk loops allocate nothing).
type Policy interface {
	// Name is the policy's display name as used in the paper's figures.
	Name() string
	PickEager(c Class, size, rails int, st *ConnState) int
	PlanBulk(c Class, size, rails int, st *ConnState) []Stripe
}

// Kind enumerates the built-in policies.
type Kind int

// Built-in policy kinds. Original is the default single-rail MVAPICH
// configuration the paper compares against (1 QP per port, rail 0).
const (
	Original Kind = iota
	Binding
	RoundRobin
	EvenStriping
	WeightedStriping
	EPC
	// Adaptive is an extension beyond the paper: instead of the ADI
	// marker it inspects the connection's live outstanding-transfer
	// count — stripe when the pipeline is empty (nothing else will fill
	// the engines), round-robin whole messages when it is deep. EPC with
	// the marker approximates this statically; Adaptive measures it.
	Adaptive
)

func (k Kind) String() string {
	switch k {
	case Original:
		return "original"
	case Binding:
		return "binding"
	case RoundRobin:
		return "round robin"
	case EvenStriping:
		return "even striping"
	case WeightedStriping:
		return "weighted striping"
	case EPC:
		return "EPC"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a policy as the command lines spell it, in any case:
// original (orig), binding (bind), rr (roundrobin, round-robin), striping
// (stripe, even-striping), weighted, epc or adaptive.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "original", "orig":
		return Original, nil
	case "binding", "bind":
		return Binding, nil
	case "rr", "roundrobin", "round-robin":
		return RoundRobin, nil
	case "striping", "stripe", "even-striping":
		return EvenStriping, nil
	case "weighted":
		return WeightedStriping, nil
	case "epc":
		return EPC, nil
	case "adaptive":
		return Adaptive, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// New returns a policy instance of the given kind with the given minimum
// stripe size (bytes). Weighted striping takes equal weights; use
// NewWeighted for explicit ones.
func New(k Kind, minStripe int) Policy {
	if k < Original || k > Adaptive {
		panic(fmt.Sprintf("core: unknown policy kind %d", int(k)))
	}
	return &policy{kind: k, minStripe: minStripe}
}

// NewWeighted returns a weighted-striping policy that divides bulk messages
// in proportion to weights (one per rail; missing entries default to 1).
// It generalises even striping to heterogeneous rails (e.g. a 12x port
// paired with a 4x port), the extension discussed in the prior multi-rail
// work the paper builds on.
func NewWeighted(minStripe int, weights []float64) Policy {
	return &policy{kind: WeightedStriping, minStripe: minStripe, weights: weights}
}

// placement is one of the paper's three base policies (§3.2.1), applied to
// a single transfer.
type placement uint8

const (
	// bound sends the whole message on the connection's bound rail: rail 0,
	// stepped off dead rails.
	bound placement = iota
	// roundRobin sends the whole message on the next rail in turn.
	roundRobin
	// stripe divides the message over the rails (bulk transfers only).
	stripe
)

// policy is every built-in policy: a kind, which place maps to a base
// placement per transfer, and the stripe planner's parameters.
type policy struct {
	kind      Kind
	minStripe int
	weights   []float64 // weighted striping only; nil = equal
	// cache memoizes stripe plans, which are a pure function of (size,
	// rails, dead) for a policy: minStripe and weights are fixed at
	// construction, so entries never go stale. Bulk benchmarks cycle
	// through a handful of sizes, so steady state is all hits.
	cache map[planKey][]Stripe
}

type planKey struct {
	size, rails int
	dead        RailMask
}

// planCacheMax bounds the cache; sweeping workloads with unbounded distinct
// sizes reset it rather than grow it forever.
const planCacheMax = 4096

// adaptiveDepth is the outstanding-transfer depth at which the adaptive
// policy stops striping: with this many messages already in flight the
// engines are busy without intra-message parallelism.
const adaptiveDepth = 2

func (p *policy) Name() string { return p.kind.String() }

// place is the policy table: the base placement of an eager (bulk false)
// or bulk transfer of class c on a connection in state st.
//
//   - original, binding: the bound rail.
//   - round robin: the next rail, whole messages (§3.2.1).
//   - even and weighted striping: bulk striped; eager on the bound rail,
//     as the prior-work striping design sends below the threshold.
//   - EPC (§3.2.2): blocking eager on the bound rail (cycling buys nothing
//     for latency with one message outstanding); other eager round robin,
//     to engage several engines across the window; non-blocking bulk round
//     robin; blocking and collective bulk striped, collectives although
//     they are issued as non-blocking calls.
//   - adaptive: round robin once adaptiveDepth transfers are in flight;
//     otherwise like even striping.
func (p *policy) place(c Class, st *ConnState, bulk bool) placement {
	switch p.kind {
	case RoundRobin:
		return roundRobin
	case EvenStriping, WeightedStriping:
		if bulk {
			return stripe
		}
	case EPC:
		switch {
		case !bulk && c == Blocking:
			return bound
		case bulk && c != NonBlocking:
			return stripe
		}
		return roundRobin
	case Adaptive:
		if st.Outstanding >= adaptiveDepth {
			return roundRobin
		}
		if bulk {
			return stripe
		}
	}
	return bound
}

func (p *policy) PickEager(c Class, _, rails int, st *ConnState) int {
	if p.place(c, st, false) == roundRobin {
		return nextRR(st, rails)
	}
	return clampRail(0, rails, st.Dead)
}

func (p *policy) PlanBulk(c Class, size, rails int, st *ConnState) []Stripe {
	switch p.place(c, st, true) {
	case bound:
		return st.single(clampRail(0, rails, st.Dead), size)
	case roundRobin:
		return st.single(nextRR(st, rails), size)
	}
	if p.kind == WeightedStriping && len(st.Rates) > 0 {
		// Degraded fabric: plans depend on the momentary rail rates, so the
		// (size, rails, dead)-keyed cache cannot serve them. Compute fresh.
		return p.onLive(size, rails, st.Dead, st.Rates)
	}
	key := planKey{size, rails, st.Dead}
	if pl, ok := p.cache[key]; ok {
		return pl
	}
	pl := p.onLive(size, rails, st.Dead, nil)
	if p.cache == nil || len(p.cache) >= planCacheMax {
		p.cache = make(map[planKey][]Stripe)
	}
	p.cache[key] = pl
	return pl
}

// onLive plans size bytes over the live rails of dead — renumbered 0..n-1
// for EvenStripes or WeightedStripes — and maps the stripes back onto their
// rail indices. A weighted policy keeps each survivor's configured weight,
// scaled by its rate when rates is not empty (a missing or non-positive
// weight or rate counts as 1). With every rail dead it plans as if all were
// live: the ADI layer parks those posts until a rail recovers.
func (p *policy) onLive(size, rails int, dead RailMask, rates []float64) []Stripe {
	var liveBuf [MaxRails]int
	live := dead.LiveRails(rails, liveBuf[:0])
	if len(live) == 0 {
		live = RailMask(0).LiveRails(rails, live)
	}
	var pl []Stripe
	if p.kind == WeightedStriping {
		var wBuf [MaxRails]float64
		w := wBuf[:0]
		for _, r := range live {
			x := 1.0
			if r < len(p.weights) && p.weights[r] > 0 {
				x = p.weights[r]
			}
			if r < len(rates) && rates[r] > 0 {
				x *= rates[r]
			}
			w = append(w, x)
		}
		pl = WeightedStripes(size, len(live), p.minStripe, w)
	} else {
		pl = EvenStripes(size, len(live), p.minStripe)
	}
	for i := range pl {
		pl[i].Rail = live[pl[i].Rail]
	}
	return pl
}

// ---- planners ----

// EvenStripes divides size bytes equally across up to rails stripes, never
// cutting a stripe below minStripe (the assembly/disassembly cost guard).
// The remainder is spread one byte at a time over the leading stripes so
// stripe sizes differ by at most one.
func EvenStripes(size, rails, minStripe int) []Stripe {
	if size <= 0 {
		return []Stripe{{Rail: 0, Off: 0, N: size}}
	}
	k := rails
	if minStripe > 0 && size/k < minStripe {
		k = size / minStripe
		if k < 1 {
			k = 1
		}
	}
	if k > size {
		k = size // never emit zero-byte stripes for tiny unguarded sizes
	}
	base, rem := size/k, size%k
	out := make([]Stripe, 0, k)
	off := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		out = append(out, Stripe{Rail: i, Off: off, N: n})
		off += n
	}
	return out
}

// WeightedStripes divides size bytes across rails in proportion to weights.
// Rails whose share would fall below minStripe are dropped and their share
// redistributed. Missing or non-positive weights default to 1.
func WeightedStripes(size, rails, minStripe int, weights []float64) []Stripe {
	if size <= 0 {
		return []Stripe{{Rail: 0, Off: 0, N: size}}
	}
	w := make([]float64, rails)
	var sum float64
	for i := 0; i < rails; i++ {
		w[i] = 1
		if i < len(weights) && weights[i] > 0 {
			w[i] = weights[i]
		}
		sum += w[i]
	}
	// Drop rails until every remaining share clears minStripe.
	active := make([]int, 0, rails)
	for i := 0; i < rails; i++ {
		active = append(active, i)
	}
	for len(active) > 1 {
		smallest, idx := -1, -1
		for j, r := range active {
			share := int(float64(size) * w[r] / sum)
			if share < minStripe && (idx == -1 || share < smallest) {
				smallest, idx = share, j
			}
		}
		if idx == -1 {
			break
		}
		sum -= w[active[idx]]
		active = append(active[:idx], active[idx+1:]...)
	}
	out := make([]Stripe, 0, len(active))
	off := 0
	for j, r := range active {
		var n int
		if j == len(active)-1 {
			n = size - off
		} else {
			n = int(float64(size) * w[r] / sum)
		}
		if n == 0 {
			continue // truncation artifact on tiny sizes; neighbours absorb it
		}
		out = append(out, Stripe{Rail: r, Off: off, N: n})
		off += n
	}
	if len(out) == 0 {
		return []Stripe{{Rail: active[0], Off: 0, N: size}}
	}
	return out
}

// clampRail folds an out-of-range rail to 0, then steps off a dead rail to
// the next live one (a bound connection rebinds around failures).
func clampRail(r, rails int, dead RailMask) int {
	if r < 0 || r >= rails {
		r = 0
	}
	if dead != 0 {
		if lr := dead.NextLive(r, rails); lr >= 0 {
			return lr
		}
	}
	return r
}

func nextRR(st *ConnState, rails int) int {
	r := st.RR % rails
	if r < 0 {
		r = 0
	}
	if st.Dead != 0 {
		if lr := st.Dead.NextLive(r, rails); lr >= 0 {
			r = lr
		}
	}
	st.RR = (r + 1) % rails
	return r
}
