package adi

import (
	"ib12x/internal/ib"
	"ib12x/internal/trace"
)

// The RDMA-write eager fast path (Options.EagerProto = EagerRDMAWrite),
// after Liu et al.'s MPICH2-over-InfiniBand design: each direction of an
// inter-node connection negotiates a persistent ring of fixed-size receive
// slots at connect time. The sender RDMA-writes an eager message (payload
// plus wire header) into the next slot and rings the immediate-data
// doorbell; the receiver's polling set discovers the arrival at RingPollCost
// instead of reaping a completion at CPUCompletion. Slot ownership is the
// flow control: the sender spends one slot per message and the receiver
// returns freed slots piggybacked on reverse traffic (or via an explicit
// credit message once half the ring is owed). A sender-side header cache of
// (tag, context) envelope signatures compresses the wire header on repeat
// sends. Messages that do not fit a slot, or arrive while the ring is
// exhausted or torn down by a rail death, fall back to the send/recv
// channel; both channels share the per-connection sequence space, so MPI's
// non-overtaking order survives the mix. See DESIGN.md §16.

// eagerRing is the sender-side view of one direction's ring: the slot
// cursor, the rkey of the slot array registered at the receiver, the slot
// window (slots free at the receiver; freed slots of the peer's reverse
// ring owed back) and the header cache of envelope signatures. While any
// rail of the connection is dead the ring is torn down: eager traffic falls
// back to the send/recv window until every rail is live again. Slots
// already in flight drain normally — the exactly-once flush semantics
// retransmit their writes onto survivors, and their credits return through
// the usual piggyback path — so re-arming needs no reset.
type eagerRing struct {
	win  window
	rkey uint32
	head uint64 // monotonic slot cursor (next slot = head % Params.RingSlots)
	hdr  hdrCache
}

// negotiateRings gives each direction of an inter-node pair its ring under
// EagerRDMAWrite, as at connect time in MPICH2: a slot array registered at
// the receiver (the receiver-resident bounce buffer) and the sender's view
// of it.
func (w *World) negotiateRings(ci, cj *Conn) {
	if w.opt.EagerProto != EagerRDMAWrite {
		return
	}
	m := w.M
	for _, c := range []*Conn{ci, cj} {
		slab := make([]byte, m.RingSlots*m.RingSlotBytes)
		c.ring = &eagerRing{
			win:  newWindow(m.RingSlots),
			rkey: w.Realm.RegisterMR(slab, len(slab)).RKey,
			hdr:  newHdrCache(m.HdrCacheSlots),
		}
	}
}

// window returns the ring's slot window (nil without a ring).
func (r *eagerRing) window() *window {
	if r == nil {
		return nil
	}
	return &r.win
}

// ringAdmit reports whether the ring takes an eager message; wr.N, the
// message on the wire, shrinks to the compressed header when its signature
// hits the header cache. A message the ring refuses — no ring, ring torn
// down, payload over the slot size, or no free slot — uses the send/recv
// window.
func (ep *Endpoint) ringAdmit(c *rcChannel, req *Request, wr *ib.SendWR) bool {
	ring := c.ring
	switch {
	case ring == nil:
		return false
	case c.sched.Dead != 0, req.n+ep.m.MPIHeaderBytes > ep.m.RingSlotBytes:
		// Torn down, or over the slot size. Slot fit is judged against the
		// full header: whether this signature would hit the cache must not
		// decide eligibility, or the same message would flip channels
		// between warm and cold runs.
	case ring.win.avail <= 0:
		ep.stats.RingFull++
	default:
		if ring.hdr.hit(req.tag, req.ctxID) {
			wr.N = req.n + ep.m.HdrCompressedBytes
			ep.stats.HdrCacheHits++
			ep.trace(trace.KindHdrHit, req.peer, req.n, -1)
		}
		return true
	}
	ep.stats.EagerFallbacks++
	ep.trace(trace.KindEagerFallback, req.peer, req.n, -1)
	return false
}

// ringSlot aims an admitted eager message's WR at the ring's next slot: an
// RDMA write into the slot with the slot number as immediate data, which
// the receiver's polling set discovers. Ring slots are payload WRs and the
// torn-write candidates: doorbell and payload land through separate writes,
// so a chaos plan can deliver them inconsistent.
func (ep *Endpoint) ringSlot(c *rcChannel, wr *ib.SendWR, rail, peer int) {
	ring := c.ring
	slot := int(ring.head % uint64(ep.m.RingSlots))
	if slot == 0 && ring.head > 0 {
		ep.trace(trace.KindRingWrap, peer, 0, rail)
	}
	ring.head++
	wr.Op, wr.RKey, wr.RemoteOff = ib.OpRDMAWrite, ring.rkey, slot*ep.m.RingSlotBytes
	wr.Imm, wr.HasImm, wr.Ring = uint64(slot), true, true
	ep.stats.RingSends++
}

// ---- header cache ----

// hdrCache is the sender-side per-peer LRU of envelope signatures
// (tag, context): a hit ships the compressed wire header, a miss installs
// the signature and ships the full one. The receiver needs no invalidation
// protocol: installs ride the same sequenced stream as the data, so its
// mirror table replays the sender's decisions deterministically.
type hdrCache struct {
	cap  int
	m    map[uint64]*hdrNode
	head *hdrNode // most recently used
	tail *hdrNode // least recently used
}

type hdrNode struct {
	key        uint64
	prev, next *hdrNode
}

func newHdrCache(capacity int) hdrCache {
	if capacity < 1 {
		capacity = 1
	}
	return hdrCache{cap: capacity, m: make(map[uint64]*hdrNode, capacity)}
}

// hdrKey packs a signature; tag and context are independently recoverable,
// so distinct signatures never collide.
func hdrKey(tag, ctxID int) uint64 {
	return uint64(uint32(tag))<<32 | uint64(uint32(ctxID))
}

// hit reports whether the signature was cached, refreshing it to
// most-recently-used; on a miss it installs the signature, evicting the
// least recently used entry at capacity.
func (h *hdrCache) hit(tag, ctxID int) bool {
	key := hdrKey(tag, ctxID)
	if n := h.m[key]; n != nil {
		h.unlink(n)
		h.pushFront(n)
		return true
	}
	if len(h.m) >= h.cap {
		lru := h.tail
		h.unlink(lru)
		delete(h.m, lru.key)
	}
	n := &hdrNode{key: key}
	h.m[key] = n
	h.pushFront(n)
	return false
}

// len reports the number of cached signatures.
func (h *hdrCache) len() int { return len(h.m) }

func (h *hdrCache) unlink(n *hdrNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		h.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		h.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (h *hdrCache) pushFront(n *hdrNode) {
	n.next = h.head
	if h.head != nil {
		h.head.prev = n
	}
	h.head = n
	if h.tail == nil {
		h.tail = n
	}
}
