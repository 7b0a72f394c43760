package sim

// procRing is the run queue: a FIFO of runnable processes backed by a
// power-of-two ring buffer, so push/pop are O(1) without allocating and
// MoveToFront (the wakeup sleeper boost) shifts only the logical prefix
// it hoists over.
type procRing struct {
	buf  []*Proc
	head int // index of the logical front
	n    int // number of queued processes
}

// Len reports the number of queued processes.
func (r *procRing) Len() int { return r.n }

// At returns the i-th process from the front (0 <= i < Len).
func (r *procRing) At(i int) *Proc {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// grow doubles the ring, re-linearizing the contents at index 0.
func (r *procRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*Proc, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.At(i)
	}
	r.buf = buf
	r.head = 0
}

// PushBack appends p at the tail.
func (r *procRing) PushBack(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// PopFront removes and returns the front process.
func (r *procRing) PopFront() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// MoveToFront hoists p to the head of the queue, preserving the
// relative order of the processes it jumps over. No-op if p is absent.
func (r *procRing) MoveToFront(p *Proc) {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if r.At(i) != p {
			continue
		}
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
		}
		r.buf[r.head] = p
		return
	}
}
