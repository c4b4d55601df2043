package ib

// MR is a registered memory region. Buf may be nil for synthetic payloads:
// the region then has a length but carries no bytes, which exercises
// identical protocol paths without host memory (DESIGN.md §5).
type MR struct {
	RKey uint32
	Buf  []byte
	N    int
}

// RegisterMR registers a region of n bytes, optionally backed by buf.
// If buf is non-nil it must be at least n bytes long. The MR struct comes
// from the realm's free list when one was deregistered, so a steady stream
// of rendezvous registrations allocates nothing; every registration still
// gets a fresh rkey.
func (r *Realm) RegisterMR(buf []byte, n int) *MR {
	if buf != nil && len(buf) < n {
		panic("ib: RegisterMR buffer shorter than declared length")
	}
	var mr *MR
	if k := len(r.mrFree); k > 0 {
		mr = r.mrFree[k-1]
		r.mrFree[k-1] = nil
		r.mrFree = r.mrFree[:k-1]
	} else {
		mr = new(MR)
	}
	r.rkey++
	*mr = MR{RKey: r.rkey, Buf: buf, N: n}
	r.mrs[mr.RKey] = mr
	return mr
}

// DeregisterMR removes the region from the realm and recycles its struct:
// the caller must not use mr afterwards. Later RDMA to its rkey fails with
// ErrBadRKey at post, and a WR already in flight toward it places nothing
// (placement resolves the rkey, so it can never land in a region that
// reused the struct). Deregistering a region twice is a no-op.
func (r *Realm) DeregisterMR(mr *MR) {
	if r.mrs[mr.RKey] != mr {
		return
	}
	delete(r.mrs, mr.RKey)
	*mr = MR{}
	r.mrFree = append(r.mrFree, mr)
}

// LookupMR resolves an rkey.
func (r *Realm) LookupMR(rkey uint32) (*MR, bool) {
	mr, ok := r.mrs[rkey]
	return mr, ok
}
