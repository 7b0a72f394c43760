package sim

// event is a scheduled callback in the discrete-event simulation.
// Events are ordered by (when, seq); seq provides a deterministic
// tie-break for events scheduled at the same instant.
//
// Events are pooled on a per-kernel free list: the simulator schedules
// one event per execution slice, so recycling them (together with the
// pre-bound callbacks in Proc) makes the steady-state scheduling path
// allocation-free. An event returns to the pool after its callback runs
// or when it is popped in the canceled state. The only holder of a
// pending event is Proc.sliceEvent, which every call site clears or
// reassigns before the event fires or is discarded; nothing holds the
// timer tick's event, which is never canceled or moved.
type event struct {
	when     uint64
	seq      uint64
	fn       func()
	canceled bool
	idx      int // position in the heap while pending; see reschedule
}

// eventHeap is a binary min-heap ordered by (when, seq). The sift
// routines are hand-rolled rather than using container/heap to avoid
// the interface indirection on the simulator's hottest path.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
}

func (h *eventHeap) push(ev *event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

func (h *eventHeap) pop() *event {
	old := *h
	n := len(old)
	ev := old[0]
	old[0] = old[n-1]
	old[0].idx = 0
	old[n-1] = nil
	*h = old[:n-1]
	h.down(0)
	return ev
}

// newEvent takes an event from the kernel's free list, or allocates one
// when the list is empty (cold start, or deeper nesting than ever seen).
func (k *Kernel) newEvent() *event {
	if n := len(k.freeEvents); n > 0 {
		ev := k.freeEvents[n-1]
		k.freeEvents[n-1] = nil
		k.freeEvents = k.freeEvents[:n-1]
		return ev
	}
	return &event{}
}

// freeEvent recycles a fired or discarded event. The callback reference
// is dropped so the pool does not pin closures.
func (k *Kernel) freeEvent(ev *event) {
	ev.fn = nil
	ev.canceled = false
	k.freeEvents = append(k.freeEvents, ev)
}

// schedule registers fn to run at absolute time when (in cycles).
// The returned event may be canceled with cancelEvent.
func (k *Kernel) schedule(when uint64, fn func()) *event {
	if when < k.now {
		when = k.now
	}
	k.seq++
	ev := k.newEvent()
	ev.when, ev.seq, ev.fn = when, k.seq, fn
	k.events.push(ev)
	return ev
}

// reschedule moves the pending event ev later, to when, in place: it
// takes a fresh seq exactly as if ev had been canceled and scheduled
// anew, but leaves no canceled event behind. The key (when, seq) only
// grows, so one sift down restores the heap; when must not be earlier
// than ev's current time.
func (k *Kernel) reschedule(ev *event, when uint64) {
	k.seq++
	ev.when, ev.seq = when, k.seq
	k.events.down(ev.idx)
}

// cancelEvent marks an event so it will be skipped (and recycled) when
// popped. The caller must drop its pointer: the event may be reused for
// an unrelated callback as soon as the queue discards it.
func (k *Kernel) cancelEvent(ev *event) {
	if ev != nil {
		ev.canceled = true
	}
}

// popEvent removes and returns the earliest non-canceled event, or nil.
// Canceled events are recycled on the way.
func (k *Kernel) popEvent() *event {
	for k.events.Len() > 0 {
		ev := k.events.pop()
		if !ev.canceled {
			return ev
		}
		k.freeEvent(ev)
	}
	return nil
}

// peekTime reports the time of the earliest pending event.
func (k *Kernel) peekTime() (uint64, bool) {
	for k.events.Len() > 0 {
		if k.events[0].canceled {
			k.freeEvent(k.events.pop())
			continue
		}
		return k.events[0].when, true
	}
	return 0, false
}
