package sim

// Ring is a growable FIFO ring buffer. The seed implementation's queues
// popped with `q = q[1:]` and refilled with append, which reallocates the
// backing array on every wrap — the dominant allocation site of the
// benchmark figures. A Ring reuses its storage: steady-state traffic does
// not allocate, and a queue that never fully drains stays bounded by its
// high-water mark instead of growing without limit.
//
// FIFO order is exact, so replacing a shifted slice with a Ring cannot move
// a single virtual-time event. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T // power-of-two capacity
	head int // index of the front element
	n    int // live elements
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the front element. It panics on an empty ring;
// callers check Len first. The vacated slot is zeroed so the ring does not
// pin popped references.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop from empty Ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns the front element without removing it.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("sim: Peek on empty Ring")
	}
	return r.buf[r.head]
}

// Front returns a pointer to the front element, valid until the next Push
// or Pop; it panics on an empty ring.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("sim: Front of empty Ring")
	}
	return &r.buf[r.head]
}

// Back returns a pointer to the back element, valid until the next Push or
// Pop; it panics on an empty ring.
func (r *Ring[T]) Back() *T {
	if r.n == 0 {
		panic("sim: Back of empty Ring")
	}
	return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

// Reserve gives an empty ring storage for n elements (rounded up to a
// power of two), for a queue known to stay shorter than the eight slots
// its first Push would allocate. It does nothing once the ring has
// storage.
func (r *Ring[T]) Reserve(n int) {
	if r.buf != nil || n <= 0 {
		return
	}
	c := 1
	for c < n {
		c <<= 1
	}
	r.buf = make([]T, c)
}

func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c == 0 {
		c = 8
	}
	next := make([]T, c)
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}
