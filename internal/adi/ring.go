package adi

import (
	"ib12x/internal/core"
	"ib12x/internal/ib"
	"ib12x/internal/model"
	"ib12x/internal/sim"
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
// cursor, the free-slot pool, and the rkey of the slot array registered at
// the receiver.
type eagerRing struct {
	slots     int
	slotBytes int
	rkey      uint32
	head      uint64 // monotonic slot cursor (next slot = head % slots)
	credits   int    // slots free at the receiver
	down      bool   // torn down while a rail of the connection is dead
}

// newEagerRing registers one direction's slot array in the realm (the
// receiver-resident bounce buffer) and returns the sender's view of it.
func newEagerRing(realm *ib.Realm, m *model.Params) *eagerRing {
	slab := make([]byte, m.RingSlots*m.RingSlotBytes)
	mr := realm.RegisterMR(slab, len(slab))
	return &eagerRing{
		slots:     m.RingSlots,
		slotBytes: m.RingSlotBytes,
		rkey:      mr.RKey,
		credits:   m.RingSlots,
	}
}

// sendEagerRing ships an eager payload through the per-peer ring, reporting
// false (without consuming protocol state) when the message must fall back
// to the send/recv channel: ring torn down, payload over the slot size, or
// no free slot.
func (ep *Endpoint) sendEagerRing(conn *Conn, req *Request) bool {
	ring := conn.ring
	if ring == nil {
		return false
	}
	if ring.down {
		ep.stats.EagerFallbacks++
		ep.trace(trace.KindEagerFallback, req.peer, req.n, -1)
		return false
	}
	// Slot fit is judged against the full header: whether this signature
	// would hit the cache must not decide eligibility, or the same message
	// would flip channels between warm and cold runs.
	if req.n+ep.m.MPIHeaderBytes > ring.slotBytes {
		ep.stats.EagerFallbacks++
		ep.trace(trace.KindEagerFallback, req.peer, req.n, -1)
		return false
	}
	if ring.credits <= 0 {
		ep.stats.RingFull++
		ep.stats.EagerFallbacks++
		ep.trace(trace.KindEagerFallback, req.peer, req.n, -1)
		return false
	}

	hdr := ep.m.MPIHeaderBytes
	if conn.hdr.hit(req.tag, req.ctxID) {
		hdr = ep.m.HdrCompressedBytes
		ep.stats.HdrCacheHits++
		ep.trace(trace.KindHdrHit, req.peer, req.n, -1)
	}

	env := ep.pool.get()
	env.kind, env.src, env.tag, env.ctxID = envEager, ep.Rank, req.tag, req.ctxID
	env.size, env.seq = req.n, conn.sendSeq
	env.ring = true
	conn.sendSeq++
	if req.data != nil {
		env.pay = ep.capture(req.data, req.n, "ring-eager")
		ep.charge(sim.TransferTime(int64(req.n), ep.m.EagerCopyRate))
	}
	var rail int
	if req.lane != NoLane {
		rail = core.LaneRail(req.lane, len(conn.rails), conn.sched.Dead)
	} else {
		rail = ep.policy.PickEager(req.class, req.n, len(conn.rails), &conn.sched)
	}
	slot := int(ring.head % uint64(ring.slots))
	if slot == 0 && ring.head > 0 {
		ep.trace(trace.KindRingWrap, req.peer, 0, rail)
	}
	ring.head++
	ring.credits--
	// Piggyback owed credits of both flow-control domains on the slot.
	env.credits += conn.owed
	conn.owed = 0
	env.ringCredits += conn.ringOwed
	conn.ringOwed = 0
	ep.stampPayloadCRC(env, req.n)
	ep.charge(ep.m.CPUHeaderProc + ep.m.CPUPostWQE + ep.m.DoorbellTime)
	ep.trace(trace.KindEager, req.peer, req.n, rail)
	req.status = Status{Source: ep.Rank, Tag: req.tag, Count: req.n}
	// Buffered-send semantics, as on the send/recv channel: the request
	// completes when the descriptor reaches the hardware. Ring slots are
	// payload WRs and the torn-write candidates: doorbell and payload land
	// through separate writes, so a chaos plan can deliver them inconsistent.
	ep.post(conn, rail, ib.SendWR{
		WRID: ep.nextWRID(), Op: ib.OpRDMAWrite,
		Data: env.pay.Bytes(), N: req.n + hdr,
		RKey: ring.rkey, RemoteOff: slot * ring.slotBytes,
		Imm: uint64(slot), HasImm: true,
		Signaled: true, Ctx: env,
		Payload: true, Ring: true, NoCorrupt: req.noCorrupt,
	}, req)
	ep.stats.EagerSent++
	ep.stats.RingSends++
	return true
}

// ---- torn-write consume guard ----
//
// The historical consume path trusted the doorbell: an immediate-data
// arrival meant the slot's payload was in place. A torn write — the doorbell
// outrunning the payload body — would hand the application a stale tail.
// With integrity armed the slot format carries a consistency marker (the
// wire header's trailing sequence byte, re-checked after copy-out); a
// mismatch parks the envelope and re-polls the slot until the payload
// settles, which the model expresses as the slot's tornAt instant.

// ringTornGuard reports whether a polled ring slot is still inconsistent,
// parking the envelope for the settle instant. Only armed integrity modes
// see a nonzero tornAt: disarmed runs deliver the stale-tail image instead.
func (ep *Endpoint) ringTornGuard(env *envelope) bool {
	if env.tornAt == 0 || env.tornAt <= ep.eng.Now() {
		env.tornAt = 0
		return false
	}
	ep.stats.TornRepolls++
	ep.trace(trace.KindTornRepoll, env.src, env.size, -1)
	ep.tornWait = append(ep.tornWait, env)
	at := env.tornAt
	ep.eng.Post(at, func() { ep.wake() })
	return true
}

// tornReadyEnv pops the next parked envelope whose slot has settled, if any.
func (ep *Endpoint) tornReadyEnv() *envelope {
	if len(ep.tornWait) == 0 || ep.tornWait[0].tornAt > ep.eng.Now() {
		return nil
	}
	env := ep.tornWait[0]
	ep.tornWait[0] = nil
	ep.tornWait = ep.tornWait[1:]
	env.tornAt = 0
	return env
}

// ringConsumed accounts one polled ring slot on the receiver and returns
// the owed slots explicitly once half the ring is owed and no reverse
// traffic has carried them back (the mirror of consumedRecv).
func (ep *Endpoint) ringConsumed(conn *Conn) {
	conn.ringOwed++
	if conn.ringOwed < max(1, ep.m.RingSlots/2) {
		return
	}
	env := ep.pool.get()
	env.kind, env.src, env.ringCredits = envCredit, ep.Rank, conn.ringOwed
	conn.ringOwed = 0
	ep.charge(ep.m.CPUPostWQE + ep.m.DoorbellTime)
	// Like channel credit returns, ring credit returns are control-plane
	// traffic: credit-exempt, unsequenced, consumed at the peer's poll.
	ep.post(conn, conn.ctrlRail(), ib.SendWR{
		WRID: ep.nextWRID(), Op: ib.OpSend,
		N: ep.m.CtrlMsgBytes, Signaled: true, Ctx: env,
	}, nil)
	ep.stats.CreditUpdates++
}

// ringCreditArrived books freed ring slots returned by the peer. Nothing
// queues on an empty slot pool — a full ring falls back to the send/recv
// channel instead — so there is no stalled work to drain.
func (ep *Endpoint) ringCreditArrived(conn *Conn, n int) {
	if n <= 0 || conn.ring == nil {
		return
	}
	conn.ring.credits += n
}

// ringDown tears the connection's send ring down (a rail died): eager
// traffic falls back to the send/recv channel until every rail is live
// again. Slots already in flight drain normally — the exactly-once flush
// semantics retransmit their writes onto survivors, and their credits
// return through the usual piggyback path — so re-arming needs no reset.
func (c *Conn) ringDown() {
	if c.ring != nil {
		c.ring.down = true
	}
}

// ringArm re-arms the ring once no rail of the connection is dead.
func (c *Conn) ringArm() {
	if c.ring != nil && c.sched.Dead == 0 {
		c.ring.down = false
	}
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

func newHdrCache(capacity int) *hdrCache {
	if capacity < 1 {
		capacity = 1
	}
	return &hdrCache{cap: capacity, m: make(map[uint64]*hdrNode, capacity)}
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
