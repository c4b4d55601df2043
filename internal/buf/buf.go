// Package buf provides the refcounted, immutable payload views the
// simulator's zero-copy data path is built on.
//
// A send captures the user's bytes exactly once — into a pooled block for
// the bounce-buffered paths (eager, message-based RMA, shared memory), or by
// wrapping the user's buffer directly for the rendezvous/RMA bulk paths.
// From there every layer (ADI envelope, stripe chunks, IB work requests,
// shared-memory delivery) passes offset/length views of the same backing
// array; only the final receive into the user's buffer copies again.
//
// Views are reference counted because pooled blocks are recycled: a block
// must not return to its pool while any layer — including a retransmission
// parked behind a dead rail — still holds a view of it. Release of the last
// reference returns the block; a stale view that outlives its block panics
// on use (generation check), turning a use-after-release into a loud,
// deterministic failure instead of silent payload corruption.
//
// A Pool belongs to one simulation world and is driven only from its
// single-threaded engine, so the counters need no atomics; concurrent
// simulations each own a Pool and never share blocks.
package buf

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// block is the shared backing store behind one or more Views.
type block struct {
	pool    *Pool
	b       []byte // nil for wrapped blocks between uses
	refs    int
	gen     uint32 // bumped on final release; stale views detect it
	class   int    // size-class index; -1 for wrapped (caller-owned) buffers
	wrapped bool
}

// View is an offset/length window onto a refcounted block. The zero View is
// valid and means "no payload" (synthetic traffic): all methods are no-ops
// or return zero values.
type View struct {
	blk *block
	gen uint32
	off int
	n   int
}

// Pool recycles payload blocks for one simulation world. The zero value is
// ready to use.
type Pool struct {
	classes  [maxClass + 1][]*block // pow2 size-classed free blocks
	wrapFree []*block               // recycled wrapper headers
	live     int                    // blocks handed out and not yet released

	// Audit state (EnableAudit): outstanding blocks stamped with the owner
	// tag and virtual time of their allocation, so a leak report names the
	// site. nil when auditing is off — the hot paths then pay only a nil
	// check.
	audit map[*block]auditInfo
	clock func() int64
}

// auditInfo records where and when an outstanding block was handed out.
type auditInfo struct {
	tag string
	at  int64
}

// EnableAudit arms allocation-site recording: every subsequent Get/Wrap is
// stamped with its owner tag (the tagged variants) or "?" and the clock's
// current virtual time. clock may be nil (times report 0).
func (p *Pool) EnableAudit(clock func() int64) {
	if p.audit == nil {
		p.audit = make(map[*block]auditInfo)
	}
	p.clock = clock
}

// record stamps a freshly handed-out block when auditing is on.
func (p *Pool) record(blk *block, tag string) {
	if p.audit == nil || blk == nil {
		return
	}
	var at int64
	if p.clock != nil {
		at = p.clock()
	}
	p.audit[blk] = auditInfo{tag: tag, at: at}
}

// GetTagged is Get with an owner tag for the audit report.
func (p *Pool) GetTagged(n int, tag string) View {
	v := p.Get(n)
	if p.audit != nil && v.blk != nil {
		p.audit[v.blk] = auditInfo{tag: tag, at: p.now()}
	}
	return v
}

// WrapTagged is Wrap with an owner tag for the audit report.
func (p *Pool) WrapTagged(b []byte, tag string) View {
	v := p.Wrap(b)
	if p.audit != nil && v.blk != nil {
		p.audit[v.blk] = auditInfo{tag: tag, at: p.now()}
	}
	return v
}

func (p *Pool) now() int64 {
	if p.clock == nil {
		return 0
	}
	return p.clock()
}

// LiveReport summarises the outstanding allocations by owner tag — count
// and earliest allocation time per site, sites sorted by name. It returns
// "" when nothing is outstanding or auditing is off; the chaos oracle
// appends it to its BufLive leak violation so a leak names its source.
func (p *Pool) LiveReport() string {
	if len(p.audit) == 0 {
		return ""
	}
	type agg struct {
		n     int
		first int64
	}
	sites := make(map[string]*agg)
	for _, info := range p.audit {
		a := sites[info.tag]
		if a == nil {
			a = &agg{first: info.at}
			sites[info.tag] = a
		}
		a.n++
		if info.at < a.first {
			a.first = info.at
		}
	}
	tags := make([]string, 0, len(sites))
	for t := range sites {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	var b strings.Builder
	for i, t := range tags {
		if i > 0 {
			b.WriteString("; ")
		}
		a := sites[t]
		fmt.Fprintf(&b, "%s x%d (first at t=%d)", t, a.n, a.first)
	}
	return b.String()
}

const maxClass = 40 // 2^40 bytes: far beyond any simulated payload

// classOf returns the pow2 size class holding n bytes.
func classOf(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a view of n writable-once bytes backed by a pooled block, with
// one reference held by the caller. Get(0) returns the zero View. The
// caller fills the bytes immediately after (the single capture copy) and
// must treat them as immutable once any other layer can see the view.
func (p *Pool) Get(n int) View {
	if n <= 0 {
		return View{}
	}
	c := classOf(n)
	var blk *block
	if free := p.classes[c]; len(free) > 0 {
		blk = free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
	} else {
		blk = &block{pool: p, b: make([]byte, 1<<c), class: c}
	}
	blk.refs = 1
	p.live++
	p.record(blk, "?")
	return View{blk: blk, gen: blk.gen, n: n}
}

// Wrap returns a view aliasing the caller's buffer directly (the zero-copy
// rendezvous/RMA path), with one reference held by the caller. The buffer is
// never returned to the byte pool — only the wrapper header is recycled.
// Wrap(nil) returns the zero View.
func (p *Pool) Wrap(b []byte) View {
	if b == nil {
		return View{}
	}
	var blk *block
	if free := p.wrapFree; len(free) > 0 {
		blk = free[len(free)-1]
		free[len(free)-1] = nil
		p.wrapFree = free[:len(free)-1]
	} else {
		blk = &block{pool: p, class: -1, wrapped: true}
	}
	blk.b = b
	blk.refs = 1
	p.live++
	p.record(blk, "?")
	return View{blk: blk, gen: blk.gen, n: len(b)}
}

// Live reports blocks handed out and not yet fully released — the leak
// check the chaos oracle runs after every conformance run.
func (p *Pool) Live() int { return p.live }

// Zero reports whether v carries no payload.
func (v View) Zero() bool { return v.blk == nil }

// Len reports the view's length in bytes.
func (v View) Len() int { return v.n }

// check panics if the view outlived its block (use after release).
func (v View) check() {
	if v.blk.gen != v.gen {
		panic(fmt.Sprintf("buf: view used after release (gen %d, block gen %d)", v.gen, v.blk.gen))
	}
}

// Bytes returns the viewed bytes (nil for the zero View). The slice aliases
// the shared block: receivers copy out of it, nobody writes into it after
// capture.
func (v View) Bytes() []byte {
	if v.blk == nil {
		return nil
	}
	v.check()
	return v.blk.b[v.off : v.off+v.n]
}

// Slice returns a sub-view of n bytes at offset off — the same backing
// array, no copy, no new reference (the sub-view borrows the parent's).
// Retain the result if it must outlive the parent's reference.
func (v View) Slice(off, n int) View {
	if v.blk == nil {
		if off != 0 || n != 0 {
			panic("buf: Slice of zero View")
		}
		return View{}
	}
	v.check()
	if off < 0 || n < 0 || off+n > v.n {
		panic(fmt.Sprintf("buf: Slice [%d:+%d] outside view of %d bytes", off, n, v.n))
	}
	return View{blk: v.blk, gen: v.gen, off: v.off + off, n: n}
}

// Retain adds a reference and returns v (for chaining). Retaining the zero
// View is a no-op.
func (v View) Retain() View {
	if v.blk == nil {
		return v
	}
	v.check()
	v.blk.refs++
	return v
}

// Release drops one reference; the last release recycles the block into its
// pool and invalidates every remaining view of it. Releasing the zero View
// is a no-op.
func (v View) Release() {
	blk := v.blk
	if blk == nil {
		return
	}
	v.check()
	blk.refs--
	if blk.refs > 0 {
		return
	}
	if blk.refs < 0 {
		panic("buf: double release")
	}
	p := blk.pool
	blk.gen++
	p.live--
	if p.audit != nil {
		delete(p.audit, blk)
	}
	if blk.wrapped {
		blk.b = nil // un-alias the caller's buffer
		p.wrapFree = append(p.wrapFree, blk)
		return
	}
	p.classes[blk.class] = append(p.classes[blk.class], blk)
}

// Refs reports the block's current reference count (0 for the zero View).
// Test observability only.
func (v View) Refs() int {
	if v.blk == nil {
		return 0
	}
	v.check()
	return v.blk.refs
}
