package mpi

import (
	"encoding/binary"
	"sort"
)

// Split partitions the communicator (MPI_Comm_split): ranks passing the
// same color form a new communicator, ordered by (key, old rank). A
// negative color (MPI_UNDEFINED) returns nil for that rank. All members of
// c must call Split collectively.
//
// Matching contexts for the child are allocated from a per-endpoint
// counter agreed by maximum across the child's members, so no two
// communicators that share a process can ever collide — communicators with
// disjoint processes share no matching state and may reuse ids freely.
func (c *Comm) Split(color, key int) *Comm {
	p := c.Size()
	// Gather (color, key, worldRank, endpoint's next free context).
	mine := make([]byte, 32)
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	binary.LittleEndian.PutUint64(mine[16:], uint64(int64(c.world(c.rank))))
	binary.LittleEndian.PutUint64(mine[24:], uint64(int64(c.ep.NextCtx())))
	all := make([]byte, 32*p)
	c.Allgather(mine, 32, all)

	type member struct {
		color, key, world int
	}
	var members []member
	maxCtx := 0
	for r := 0; r < p; r++ {
		b := all[32*r:]
		m := member{
			color: int(int64(binary.LittleEndian.Uint64(b[0:]))),
			key:   int(int64(binary.LittleEndian.Uint64(b[8:]))),
			world: int(int64(binary.LittleEndian.Uint64(b[16:]))),
		}
		if m.color != color {
			continue
		}
		members = append(members, m)
		if ctx := int(int64(binary.LittleEndian.Uint64(b[24:]))); ctx > maxCtx {
			maxCtx = ctx
		}
	}
	if color < 0 {
		return nil
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].world < members[j].world
	})

	child := &Comm{
		ep:      c.ep,
		size:    len(members),
		group:   make([]int, len(members)),
		inverse: make(map[int]int, len(members)),
		ctxP2P:  maxCtx,
		ctxColl: maxCtx + 1,
		collAlg: c.collAlg,
		lanes:   c.lanes,
	}
	me := c.world(c.rank)
	for i, m := range members {
		child.group[i] = m.world
		child.inverse[m.world] = i
		if m.world == me {
			child.rank = i
		}
	}
	c.ep.ReserveCtx(maxCtx + 2)
	return child
}

// Dup duplicates the communicator with fresh matching contexts
// (MPI_Comm_dup).
func (c *Comm) Dup() *Comm { return c.Split(0, c.rank) }

// Waitany blocks until at least one of the requests completes and returns
// its index (MPI_Waitany). It panics on an empty slice.
func (c *Comm) Waitany(rs []*Request) int {
	if len(rs) == 0 {
		panic("mpi: Waitany on no requests")
	}
	for {
		for i, r := range rs {
			if r != nil && r.Done() {
				return i
			}
		}
		c.ep.WaitAnyProgress()
	}
}

// Testall drives progress and reports whether every request has completed.
func (c *Comm) Testall(rs []*Request) bool {
	c.ep.Progress()
	for _, r := range rs {
		if r != nil && !r.Done() {
			return false
		}
	}
	return true
}
