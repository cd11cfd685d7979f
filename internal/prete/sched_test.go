package prete

import (
	"testing"

	"repro/internal/ops5"
)

// TestDequeGrowsInOrder pushes well past the first ring size, with the
// head moved off slot 0 so every doubling has to unwrap the ring, then
// checks that thieves still take the oldest tasks from the head and the
// owner the newest from the tail, each in order.
func TestDequeGrowsInOrder(t *testing.T) {
	const total = 4*deqMin + 37
	tagged := func(i int) task { return task{wme: &ops5.WME{TimeTag: i}} }
	var d wdeque
	pushed := 0
	push := func(k int) {
		ts := make([]task, k)
		for i := range ts {
			ts[i] = tagged(pushed + i)
		}
		d.pushAll(ts)
		pushed += k
	}
	var buf [stealGrain]task
	steal := func(from int) int {
		k := d.stealHalf(buf[:])
		for i, got := range buf[:k] {
			if got.wme.TimeTag != from+i {
				t.Fatalf("steal %d: got task %d, want %d", i, got.wme.TimeTag, from+i)
			}
		}
		return from + k
	}

	push(100)
	next := steal(0) // head now at slot stealGrain
	for pushed < total {
		push(min(37, total-pushed))
	}
	if d.size() != total-next || len(d.buf) <= deqMin {
		t.Fatalf("size %d ring %d, want %d tasks in a ring past %d", d.size(), len(d.buf), total-next, deqMin)
	}
	next = steal(next)
	for want := total - 1; want >= next; want-- {
		got, ok := d.popTail()
		if !ok || got.wme.TimeTag != want {
			t.Fatalf("popTail = %v %v, want task %d", got.wme, ok, want)
		}
	}
	if _, ok := d.popTail(); ok || d.size() != 0 {
		t.Fatalf("deque not empty after draining: size %d", d.size())
	}
}
