package mpi

// Variable-count collectives (the v-variants) and prefix scans.

// Gatherv collects counts[r] bytes from each rank r into recv at root,
// placed at displs[r]. send carries this rank's counts[rank] bytes.
func (c *Comm) Gatherv(root int, send []byte, recv []byte, counts, displs []int) {
	p := c.size
	if len(counts) != p || len(displs) != p {
		panic("mpi: Gatherv counts/displs must have one entry per rank")
	}
	tag := c.nextCollTag()
	rank := c.Rank()
	if rank == root {
		if recv != nil && send != nil {
			copy(recv[displs[rank]:displs[rank]+counts[rank]], send[:counts[rank]])
		}
		reqs := make([]*Request, 0, p-1)
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			var dst []byte
			if recv != nil {
				dst = recv[displs[r] : displs[r]+counts[r]]
			}
			reqs = append(reqs, c.crecv(r, tag, dst, counts[r]))
		}
		c.cwaitAll(reqs)
		return
	}
	c.cwait(c.csend(root, tag, send, counts[rank]))
}

// Scatterv distributes counts[r] bytes to each rank r from send at root
// (offsets displs); each rank receives its counts[rank] bytes into recv.
func (c *Comm) Scatterv(root int, send []byte, counts, displs []int, recv []byte) {
	p := c.size
	if len(counts) != p || len(displs) != p {
		panic("mpi: Scatterv counts/displs must have one entry per rank")
	}
	tag := c.nextCollTag()
	rank := c.Rank()
	if rank == root {
		reqs := make([]*Request, 0, p-1)
		for r := 0; r < p; r++ {
			var blk []byte
			if send != nil {
				blk = send[displs[r] : displs[r]+counts[r]]
			}
			if r == root {
				if recv != nil && blk != nil {
					copy(recv[:counts[r]], blk)
				}
				continue
			}
			reqs = append(reqs, c.csend(r, tag, blk, counts[r]))
		}
		c.cwaitAll(reqs)
		return
	}
	c.cwait(c.crecv(root, tag, recv, counts[rank]))
}

// Allgatherv collects counts[r] bytes from every rank into recv on all
// ranks at offsets displs (ring algorithm, like Allgather).
func (c *Comm) Allgatherv(send []byte, recv []byte, counts, displs []int) {
	p := c.size
	if len(counts) != p || len(displs) != p {
		panic("mpi: Allgatherv counts/displs must have one entry per rank")
	}
	tag := c.nextCollTag()
	rank := c.Rank()
	if recv != nil && send != nil {
		copy(recv[displs[rank]:displs[rank]+counts[rank]], send[:counts[rank]])
	}
	if p == 1 {
		return
	}
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	for i := 0; i < p-1; i++ {
		sb := (rank - i + p) % p
		rb := (rank - i - 1 + p) % p
		var sbuf, rbuf []byte
		if recv != nil {
			sbuf = recv[displs[sb] : displs[sb]+counts[sb]]
			rbuf = recv[displs[rb] : displs[rb]+counts[rb]]
		}
		c.csendrecv(right, tag, sbuf, counts[sb], left, rbuf, counts[rb])
	}
}

// ScanInt64 computes the inclusive prefix reduction: after the call, buf on
// rank r holds op over ranks 0..r (MPI_Scan). Linear-chain algorithm.
func (c *Comm) ScanInt64(buf []int64, op Op) {
	tag := c.nextCollTag()
	rank := c.Rank()
	b, tmp := c.int64Scratch(buf)
	if rank > 0 {
		c.cwait(c.crecv(rank-1, tag, tmp, len(tmp)))
		combinerInt64(op)(b, tmp)
	}
	if rank+1 < c.size {
		c.cwait(c.csend(rank+1, tag, b, len(b)))
	}
	bytesToInt64s(b, buf)
}

// ExscanInt64 computes the exclusive prefix reduction: rank r receives op
// over ranks 0..r-1; rank 0's buffer is left untouched (MPI_Exscan).
func (c *Comm) ExscanInt64(buf []int64, op Op) {
	tag := c.nextCollTag()
	rank := c.Rank()
	mine, prefix := c.int64Scratch(buf)
	if rank == 0 {
		if c.size > 1 {
			c.cwait(c.csend(1, tag, mine, len(mine)))
		}
		return
	}
	c.cwait(c.crecv(rank-1, tag, prefix, len(prefix)))
	if rank+1 < c.size {
		// Forward prefix ⊕ mine to the right, combined in mine's buffer:
		// every Op is commutative over int64, so mine ⊕ prefix is the
		// same value.
		combinerInt64(op)(mine, prefix)
		c.cwait(c.csend(rank+1, tag, mine, len(mine)))
	}
	bytesToInt64s(prefix, buf)
}

// ScanFloat64 is ScanInt64 over float64 elements.
func (c *Comm) ScanFloat64(buf []float64, op Op) {
	tag := c.nextCollTag()
	rank := c.Rank()
	b, tmp := c.float64Scratch(buf)
	if rank > 0 {
		c.cwait(c.crecv(rank-1, tag, tmp, len(tmp)))
		combinerFloat64(op)(b, tmp)
	}
	if rank+1 < c.size {
		c.cwait(c.csend(rank+1, tag, b, len(b)))
	}
	bytesToFloat64s(b, buf)
}
