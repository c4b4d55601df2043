package adi

import "ib12x/internal/sim"

// Indexed tag matching. The seed implementation kept posted-unmatched
// receives and unexpected envelopes in two flat slices and scanned them
// linearly on every arrival/post — O(queue length) per message, which
// dominates deep-window workloads. Here both queues are bucketed by
// (context, source):
//
//   - a posted receive with a concrete source lives in the bucket of its
//     (ctx, src); an AnySource receive lives in a per-context wildcard list;
//   - an arrived envelope always has a concrete source and lives in its
//     (ctx, src) bucket.
//
// MPI's matching order is preserved exactly, not approximately:
//
//   - an inbound envelope must match the EARLIEST-POSTED matching receive.
//     Within each bucket receives sit in post order, so the first tag match
//     of the envelope's (ctx, src) bucket and the first tag match of the
//     context's wildcard list are the only two candidates; the lower post
//     sequence number wins.
//   - a posted receive must match the EARLIEST-ARRIVED matching envelope.
//     For a concrete source only one bucket can match and its first tag
//     match is the answer; for AnySource every bucket of the context is a
//     candidate and the minimum arrival sequence number wins (map iteration
//     order does not leak into the result — the minimum is unique).
//
// The determinism digests in determinism_test.go pin this equivalence
// against the seed's linear scans.

// matchKey addresses one (context, source) bucket.
type matchKey struct {
	ctx, src int
}

// tagOK reports a receive-side tag selector accepting an envelope tag.
func tagOK(want, got int) bool { return want == AnyTag || want == got }

// recvIndex holds posted, unmatched receives.
type recvIndex struct {
	specific map[matchKey][]*Request // concrete-source receives, post order
	wild     map[int][]*Request      // AnySource receives per context, post order
	count    int
}

// add appends a posted receive; req.postSeq must already be assigned.
func (ix *recvIndex) add(req *Request) {
	if req.peer == AnySource {
		if ix.wild == nil {
			ix.wild = make(map[int][]*Request)
		}
		ix.wild[req.ctxID] = append(ix.wild[req.ctxID], req)
	} else {
		if ix.specific == nil {
			ix.specific = make(map[matchKey][]*Request)
		}
		k := matchKey{req.ctxID, req.peer}
		ix.specific[k] = append(ix.specific[k], req)
	}
	ix.count++
}

// match removes and returns the earliest-posted receive matching env, or nil.
func (ix *recvIndex) match(env *envelope) *Request {
	if ix.count == 0 {
		return nil
	}
	var spec, wild *Request
	si, wi := -1, -1
	sk := matchKey{env.ctxID, env.src}
	sq := ix.specific[sk]
	for i, r := range sq {
		if tagOK(r.tag, env.tag) {
			spec, si = r, i
			break
		}
	}
	wq := ix.wild[env.ctxID]
	for i, r := range wq {
		if tagOK(r.tag, env.tag) {
			wild, wi = r, i
			break
		}
	}
	switch {
	case spec == nil && wild == nil:
		return nil
	case wild == nil || (spec != nil && spec.postSeq < wild.postSeq):
		ix.specific[sk] = cutReq(sq, si)
		ix.count--
		return spec
	default:
		ix.wild[env.ctxID] = cutReq(wq, wi)
		ix.count--
		return wild
	}
}

// unexIndex holds arrived, unmatched eager/RTS envelopes.
type unexIndex struct {
	buckets map[matchKey][]*envelope // arrival order within each bucket
	count   int
}

// add parks an envelope; env.arrSeq must already be assigned.
func (ix *unexIndex) add(env *envelope) {
	if ix.buckets == nil {
		ix.buckets = make(map[matchKey][]*envelope)
	}
	k := matchKey{env.ctxID, env.src}
	ix.buckets[k] = append(ix.buckets[k], env)
	ix.count++
}

// lookFor locates the earliest-arrived envelope matching req, returning its
// bucket key and position (found=false if none).
func (ix *unexIndex) lookFor(req *Request) (k matchKey, i int, found bool) {
	if ix.count == 0 {
		return matchKey{}, 0, false
	}
	if req.peer != AnySource {
		k = matchKey{req.ctxID, req.peer}
		for i, env := range ix.buckets[k] {
			if tagOK(req.tag, env.tag) {
				return k, i, true
			}
		}
		return matchKey{}, 0, false
	}
	var best *envelope
	for bk, q := range ix.buckets {
		if bk.ctx != req.ctxID {
			continue
		}
		for bi, env := range q {
			if tagOK(req.tag, env.tag) {
				// Within a bucket arrival order holds, so the first tag
				// match is that source's earliest; compare across sources.
				if best == nil || env.arrSeq < best.arrSeq {
					best, k, i = env, bk, bi
				}
				break
			}
		}
	}
	return k, i, best != nil
}

// takeFor removes and returns the earliest-arrived envelope matching req.
func (ix *unexIndex) takeFor(req *Request) *envelope {
	k, i, ok := ix.lookFor(req)
	if !ok {
		return nil
	}
	q := ix.buckets[k]
	env := q[i]
	ix.buckets[k] = cutEnv(q, i)
	ix.count--
	return env
}

// peekFor is takeFor without removal (Iprobe).
func (ix *unexIndex) peekFor(req *Request) *envelope {
	k, i, ok := ix.lookFor(req)
	if !ok {
		return nil
	}
	return ix.buckets[k][i]
}

// cutReq removes position i preserving order and nils the vacated tail slot
// so the backing array does not pin the removed request.
func cutReq(q []*Request, i int) []*Request {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

func cutEnv(q []*envelope, i int) []*envelope {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// ---- object pools ----

// pools recycles a world's protocol objects: envelopes, requests and
// in-flight WR records, each from its own sim.Slab. Envelopes are allocated
// at the sending endpoint but consumed (and thus freed) at the receiving
// one, so the pools are shared per World — the single-threaded engine makes
// that safe without locks. Sharing also lets one block serve every rank: a
// rank that never holds more than one request does not carve a block of its
// own. Payload capacity is recycled separately through the world's
// buf.Pool, so steady-state eager traffic with real payloads stops
// allocating buffers too.
type pools struct {
	envs sim.Slab[envelope]
	reqs sim.Slab[Request]
	fls  sim.Slab[inflightWR]
}

// get takes a zeroed envelope.
func (p *pools) get() *envelope { return p.envs.Get() }

// put recycles an envelope whose terminal handler has run, releasing the
// envelope's reference on its payload view (the last one, on the eager and
// message-RMA paths — the backing block returns to the world's buf.Pool).
func (p *pools) put(env *envelope) {
	env.pay.Release()
	*env = envelope{}
	p.envs.Put(env)
}

// newRequest returns a zeroed request bound to ep, recycled if possible.
func (ep *Endpoint) newRequest() *Request {
	r := ep.pool.reqs.Get()
	*r = Request{ep: ep, lane: NoLane}
	return r
}

// Release returns a completed request to its world's pool. Only code
// that created the request and can prove no other reference survives — the
// mpi layer's blocking operations and collective internals — may call it;
// a released request must never be touched again. Releasing nil is a no-op.
func (r *Request) Release() {
	if r == nil || r.ep == nil {
		return
	}
	// The protocol releases r.owner at FIN/DONE/final-ack and clears it;
	// this release is a defensive no-op unless the request is being
	// abandoned with its transfer still in flight.
	r.owner.Release()
	ep := r.ep
	*r = Request{}
	ep.pool.reqs.Put(r)
}
