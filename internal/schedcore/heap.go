package schedcore

// Event is one timestamped scheduling event. Ref identifies the subject
// (a task index for the engine's own events; drivers may store any
// handle). Events order by (Time, Kind, insertion sequence), so callers
// control same-instant ordering through Kind: KindCompletion <
// KindArrival applies released cores before new arrivals, the order the
// engine's batch loop keeps with its arrival cursor.
type Event struct {
	Time float64
	Kind int
	Ref  int
	seq  int // tie-break for determinism, assigned by Push
}

// Engine event kinds. Drivers layering their own events (policy swaps,
// trace markers) may use any other ints; smaller kinds apply first within
// a timestamp.
const (
	KindCompletion = 0
	KindArrival    = 1
)

// less is the deterministic event order: time, then kind, then insertion
// sequence.
func (a Event) less(b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.seq < b.seq
}

// EventHeap is a binary min-heap of events. It is hand-rolled rather than
// built on container/heap because the interface-based API boxes every
// pushed and popped event into an `any`, which costs two heap allocations
// per simulated completion — the single largest allocation source in the
// event loop. The zero value is ready to use.
//
// The Engine's batch loop keeps only completions here: its arrivals are
// all known up front, so they sit in a submit-sorted slice read through a
// cursor (see RunBatch), and each heap operation pays log(running) rather
// than log(running + future arrivals). Drivers whose arrivals and
// completions interleave unpredictably (load generators, the online
// replay) push both kinds into one heap and rely on the Kind order.
type EventHeap struct {
	evs []Event
	seq int
}

// Len reports the number of queued events.
func (h *EventHeap) Len() int { return len(h.evs) }

// Reset empties the heap, keeping its backing capacity, and restarts the
// insertion sequence — the state of a zero EventHeap.
func (h *EventHeap) Reset() {
	h.evs = h.evs[:0]
	h.seq = 0
}

// PeekTime returns the earliest event time; the heap must be non-empty.
func (h *EventHeap) PeekTime() float64 { return h.evs[0].Time }

// Push inserts an event, assigning it the next insertion sequence.
func (h *EventHeap) Push(ev Event) {
	ev.seq = h.seq
	h.seq++
	h.evs = append(h.evs, ev)
	h.siftUp(len(h.evs) - 1)
}

// Pop removes and returns the earliest event.
func (h *EventHeap) Pop() Event {
	top := h.evs[0]
	n := len(h.evs) - 1
	h.evs[0] = h.evs[n]
	h.evs = h.evs[:n]
	h.siftDown(0)
	return top
}

func (h *EventHeap) siftUp(i int) {
	evs := h.evs
	for i > 0 {
		parent := (i - 1) / 2
		if !evs[i].less(evs[parent]) {
			return
		}
		evs[i], evs[parent] = evs[parent], evs[i]
		i = parent
	}
}

func (h *EventHeap) siftDown(i int) {
	evs := h.evs
	n := len(evs)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && evs[right].less(evs[left]) {
			least = right
		}
		if !evs[least].less(evs[i]) {
			return
		}
		evs[i], evs[least] = evs[least], evs[i]
		i = least
	}
}
