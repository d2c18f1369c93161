package sim

import "fmt"

// Event is a scheduled callback in virtual time.
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among events at the same instant
	prio   int    // secondary order at the same instant; lower runs first
	fn     func()
	index  int    // heap index; -1 once fired or cancelled
	Label  string // optional, for debugging traces
	kernel *Kernel
}

// At reports the virtual time the event fires at.
func (e *Event) At() Time { return e.at }

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.index < 0 {
		return
	}
	e.kernel.queue.remove(e.index)
}

// Pending reports whether the event is still scheduled.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// before orders events by (at, prio, seq). seq is unique per kernel, so
// this is a total order: any correct heap pops the same sequence.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events under before. Every queued
// event is live: Cancel removes its event, and Step pops before it runs
// one. Each event's index tracks its slot so Cancel removes in O(log n).
type eventQueue []*Event

func (q *eventQueue) push(e *Event) {
	e.index = len(*q)
	*q = append(*q, e)
	q.up(e.index)
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() *Event {
	e := (*q)[0]
	q.remove(0)
	return e
}

// remove deletes the event at slot i, moving the last event into the gap
// and restoring heap order around it.
func (q *eventQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	e, last := old[i], old[n]
	old[n] = nil
	*q = old[:n]
	e.index = -1
	if i == n {
		return
	}
	old[i] = last
	last.index = i
	if !q.down(i) {
		q.up(i)
	}
}

// up moves the event at slot j towards the root until its parent is
// earlier.
func (q eventQueue) up(j int) {
	e := q[j]
	for j > 0 {
		i := (j - 1) / 2
		p := q[i]
		if !e.before(p) {
			break
		}
		q[j] = p
		p.index = j
		j = i
	}
	q[j] = e
	e.index = j
}

// down moves the event at slot i0 towards the leaves until both children
// are later, and reports whether it moved.
func (q eventQueue) down(i0 int) bool {
	n := len(q)
	e := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		child := q[c]
		if !child.before(e) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = e
	e.index = i
	return i > i0
}

// Kernel is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on a single
// goroutine.
type Kernel struct {
	now    Time
	queue  eventQueue
	seq    uint64
	events uint64 // total events executed
	halted bool
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.events }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time
// would destroy determinism.
func (k *Kernel) At(t Time, fn func()) *Event { return k.at(t, 0, fn, "") }

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) *Event { return k.at(k.now+d, 0, fn, "") }

// AtPrio schedules fn at time t with an explicit same-instant priority;
// lower prio runs first. Substrates use this to order, e.g., budget
// replenishment before task release at the same tick.
func (k *Kernel) AtPrio(t Time, prio int, fn func()) *Event { return k.at(t, prio, fn, "") }

// AtLabeled is At with a debug label attached to the event.
func (k *Kernel) AtLabeled(t Time, label string, fn func()) *Event { return k.at(t, 0, fn, label) }

func (k *Kernel) at(t Time, prio int, fn func(), label string) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := &Event{at: t, seq: k.seq, prio: prio, fn: fn, Label: label, kernel: k}
	k.seq++
	k.queue.push(e)
	return e
}

// Every schedules fn on a fixed virtual-time grid: at start, then every
// step, re-arming itself until cancelled. prio orders the grid tick
// against same-instant model events (observability samplers use a high
// prio so they read state after the substrate has settled the instant).
// The returned cancel stops the grid; it is safe to call more than once.
func (k *Kernel) Every(start Time, step Duration, prio int, fn func(now Time)) (cancel func()) {
	if step <= 0 {
		panic("sim: Every step must be positive")
	}
	stopped := false
	var ev *Event
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(k.now)
		ev = k.AtPrio(k.now+step, prio, tick)
	}
	ev = k.AtPrio(start, prio, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}

// Halt stops the run loop after the current event returns.
func (k *Kernel) Halt() { k.halted = true }

// Step executes the next pending event and returns true, or returns false
// if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.queue.pop()
	k.now = e.at
	k.events++
	e.fn()
	return true
}

// Run executes events until the queue drains, the horizon passes, or Halt
// is called. Events scheduled exactly at the horizon still execute; the
// clock finishes at min(horizon, last event time). It returns the number
// of events executed by this call.
func (k *Kernel) Run(horizon Time) uint64 {
	k.halted = false
	start := k.events
	for !k.halted && len(k.queue) > 0 {
		if k.queue[0].at > horizon {
			k.now = horizon
			break
		}
		k.Step()
	}
	if len(k.queue) == 0 && k.now < horizon {
		k.now = horizon
	}
	return k.events - start
}

// Pending returns the number of scheduled (non-cancelled) events.
// Cancel removes its event from the queue, so that is the queue length.
func (k *Kernel) Pending() int { return len(k.queue) }
