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
// If buf is non-nil it must be at least n bytes long.
func (r *Realm) RegisterMR(buf []byte, n int) *MR {
	if buf != nil && len(buf) < n {
		panic("ib: RegisterMR buffer shorter than declared length")
	}
	r.rkey++
	mr := &MR{RKey: r.rkey, Buf: buf, N: n}
	r.mrs[mr.RKey] = mr
	return mr
}

// DeregisterMR removes the region from the realm; later RDMA to its rkey
// fails with ErrBadRKey.
func (r *Realm) DeregisterMR(mr *MR) {
	delete(r.mrs, mr.RKey)
}

// LookupMR resolves an rkey.
func (r *Realm) LookupMR(rkey uint32) (*MR, bool) {
	mr, ok := r.mrs[rkey]
	return mr, ok
}
