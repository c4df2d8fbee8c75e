package transport

import (
	"sync"
	"time"
)

// delaySink is where a delayLine hands a frame once its delay has
// passed: a mesh endpoint's inbox, or the transport a Chaos wraps.
type delaySink interface {
	deliver(frame []byte)
}

// delayedFrame is one frame waiting in a delayLine.
type delayedFrame struct {
	due time.Time
	// seq is the arrival number, the tie-break between equal due times.
	seq   uint64
	to    delaySink
	frame []byte
}

// before orders the line's heap: by due time, then by arrival.
func (a *delayedFrame) before(b *delayedFrame) bool {
	if c := a.due.Compare(b.due); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// lineLinger is how long a drain goroutine outlives an empty heap: ten
// of the benchmark's Task-1 ticks. A line whose frames come in bursts
// with shorter gaps, such as a node's Chaos line under steady traffic,
// keeps one goroutine instead of starting one per burst, each of which
// grew its stack again inside the send path.
const lineLinger = 100 * time.Millisecond

// delayLine realises link delays in real time for a whole Mesh or Chaos:
// frames wait in one min-heap ordered by (due time, arrival) and one
// goroutine, asleep on one timer until the earliest is due, hands them to
// their sinks in that order. The goroutine exists only while frames are
// pending or have been within lineLinger — it exits when the heap has
// stayed empty that long, or at once on close, and the next add starts a
// new one — so a line nobody closes holds no goroutine once it has
// drained and gone idle. The zero value is ready to use.
type delayLine struct {
	// outMu is held by the drain goroutine from taking frames off the
	// heap until they are handed over, so that close, by passing through
	// it, waits for a hand-over in progress. Acquired before mu.
	outMu sync.Mutex

	mu sync.Mutex
	// heap is the pending frames, earliest first; guarded by mu.
	heap []delayedFrame
	// seq numbers arrivals; guarded by mu.
	seq uint64
	// timer wakes the drain goroutine; guarded by mu (the goroutine only
	// receives from its channel outside the lock).
	timer *time.Timer
	// running reports that a drain goroutine exists; guarded by mu.
	running bool
	// starts counts the drain goroutines started; guarded by mu.
	starts uint64
	// closed makes add a no-op; guarded by mu.
	closed bool
}

// add queues frame for delivery to sink at due.
//
//urbvet:wallclock the line's timer realises the loss model's link delays in real time
func (l *delayLine) add(due time.Time, to delaySink, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.seq++
	l.push(delayedFrame{due: due, seq: l.seq, to: to, frame: frame})
	if l.heap[0].seq == l.seq {
		// The new earliest: the sleeper must wake for it, not for the
		// frame it went to sleep on.
		if l.timer == nil {
			l.timer = time.NewTimer(time.Until(due))
		} else {
			l.timer.Reset(time.Until(due))
		}
	}
	if !l.running {
		l.running = true
		l.starts++
		go l.drain()
	}
}

// drain hands over every frame as it falls due and returns once none has
// been pending for lineLinger, or once the line is closed.
//
//urbvet:wallclock the line's timer realises the loss model's link delays in real time
func (l *delayLine) drain() {
	var due []delayedFrame
	var idle time.Time // when the heap was found empty; zero while frames are pending
	for {
		l.outMu.Lock()
		l.mu.Lock()
		now := time.Now()
		if len(l.heap) == 0 { // drained, or discarded by close
			if idle.IsZero() {
				idle = now
			}
			if l.closed || now.Sub(idle) >= lineLinger {
				l.running = false
				l.mu.Unlock()
				l.outMu.Unlock()
				return
			}
			// Linger; an add meanwhile resets the timer to its frame's due time.
			l.timer.Reset(lineLinger - now.Sub(idle))
		} else {
			idle = time.Time{}
			for len(l.heap) > 0 && !l.heap[0].due.After(now) {
				due = append(due, l.pop())
			}
			if len(due) == 0 {
				l.timer.Reset(l.heap[0].due.Sub(now))
			}
		}
		timer := l.timer
		l.mu.Unlock()
		for i := range due {
			due[i].to.deliver(due[i].frame)
		}
		l.outMu.Unlock()
		if len(due) == 0 {
			<-timer.C // an earlier arrival or close resets it sooner
		}
		clear(due) // drop the frame references
		due = due[:0]
	}
}

// close discards every pending frame and makes later adds no-ops. When it
// returns no sink is being delivered to and none will be again.
func (l *delayLine) close() {
	l.mu.Lock()
	l.closed = true
	l.heap = nil
	if l.timer != nil {
		l.timer.Reset(0) // wake the sleeper: it finds nothing and exits
	}
	l.mu.Unlock()
	// Passing through outMu is the wait for a hand-over in progress.
	l.outMu.Lock()
	l.outMu.Unlock()
}

// push inserts f into the heap.
//
//urbvet:locked mu
func (l *delayLine) push(f delayedFrame) {
	h := append(l.heap, f)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	l.heap = h
}

// pop removes and returns the earliest frame.
//
//urbvet:locked mu
func (l *delayLine) pop() delayedFrame {
	h := l.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = delayedFrame{}
	h = h[:last]
	for i := 0; ; {
		least := i
		if c := 2*i + 1; c < last && h[c].before(&h[least]) {
			least = c
		}
		if c := 2*i + 2; c < last && h[c].before(&h[least]) {
			least = c
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	l.heap = h
	return top
}
