package sim

import (
	"sort"
	"testing"
)

// TestKernelAllocsPerEvent gates the event path: scheduling and running
// an event allocates the Event itself and nothing else (no boxing, no
// queue growth once the queue is warm).
func TestKernelAllocsPerEvent(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 64; i++ {
		k.At(Time(1_000_000+i), func() {})
	}
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		k.At(k.Now(), fn)
		k.Step()
	})
	if allocs != 1 {
		t.Fatalf("At+Step allocates %v times per event, want exactly 1", allocs)
	}
}

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	at   Time
	prio int
	seq  uint64
	id   int
}

// FuzzKernelOrder drives the kernel with a fuzzed sequence of At, AtPrio,
// Cancel and Step calls and checks every pop against a reference that
// keeps the live events sorted by (at, prio, seq). Some events schedule
// a child when they run, so events are also queued from inside Step.
// Pending (kernel and event) must agree with the reference throughout.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		k := NewKernel()
		var (
			live    []refEvent // reference queue
			handles []*Event   // by id
			seq     uint64
			fired   []int
		)
		var schedule func(at Time, prio int, child Duration)
		schedule = func(at Time, prio int, child Duration) {
			id := len(handles)
			live = append(live, refEvent{at, prio, seq, id})
			seq++
			handles = append(handles, k.AtPrio(at, prio, func() {
				fired = append(fired, id)
				if child > 0 {
					schedule(k.Now()+child, 0, 0)
				}
			}))
		}
		step := func() {
			sort.Slice(live, func(i, j int) bool {
				a, b := live[i], live[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.prio != b.prio {
					return a.prio < b.prio
				}
				return a.seq < b.seq
			})
			want := live[0]
			live = live[1:]
			fired = fired[:0]
			if !k.Step() {
				t.Fatalf("Step returned false with %d events pending", len(live)+1)
			}
			if len(fired) != 1 || fired[0] != want.id || k.Now() != want.at {
				t.Fatalf("popped %v at %v, want event %d at %v", fired, k.Now(), want.id, want.at)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0:
				schedule(k.Now()+Duration(arg%16), 0, 0)
			case 1:
				schedule(k.Now()+Duration(arg%16), int(op/5%4)-2, 0)
			case 2:
				schedule(k.Now()+Duration(arg%16), int(op/5%4)-2, Duration(arg%8))
			case 3:
				if len(handles) == 0 {
					continue
				}
				id := int(arg) % len(handles)
				handles[id].Cancel()
				for j, e := range live {
					if e.id == id {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			default:
				if len(live) > 0 {
					step()
				} else if k.Step() {
					t.Fatal("Step ran an event from an empty queue")
				}
			}
			checkPending(t, k, live, handles)
		}
		for len(live) > 0 {
			step()
			checkPending(t, k, live, handles)
		}
		if k.Step() {
			t.Fatal("Step ran an event after the reference drained")
		}
	})
}

func checkPending(t *testing.T, k *Kernel, live []refEvent, handles []*Event) {
	t.Helper()
	if k.Pending() != len(live) {
		t.Fatalf("Pending() = %d, reference holds %d", k.Pending(), len(live))
	}
	queued := make(map[int]bool, len(live))
	for _, e := range live {
		queued[e.id] = true
	}
	for id, h := range handles {
		if h.Pending() != queued[id] {
			t.Fatalf("event %d: Pending() = %v, reference %v", id, h.Pending(), queued[id])
		}
	}
}
