package trace

import (
	"testing"
	"time"
)

// count is how many values k keeps.
func (k *kept[T]) count() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.free)
}

// trim drops every kept value now, as the idle timer would.
func (k *kept[T]) trim() {
	k.mu.Lock()
	defer k.mu.Unlock()
	clear(k.free)
	k.free = nil
}

// TestKeptBound holds a kept list to its count bound: a full list drops
// what it is offered, and a get hands back a kept value.
func TestKeptBound(t *testing.T) {
	k := newKept[[]byte](2)
	for i := 0; i < 3; i++ {
		k.put(make([]byte, 100))
	}
	if n := k.count(); n != 2 {
		t.Fatalf("%d kept after 3 puts, want the bound 2", n)
	}
	if b, ok := k.get(); !ok || cap(b) != 100 {
		t.Fatalf("get: ok=%v cap=%d", ok, cap(b))
	}
	if n := k.count(); n != 1 {
		t.Fatalf("%d kept after a get, want 1", n)
	}
	k.trim()
	if _, ok := k.get(); ok || k.count() != 0 {
		t.Fatalf("after a trim: got a value, or %d kept", k.count())
	}
}

// TestKeptIdleTrim: a kept list nobody uses drops what it keeps, and
// use keeps it from doing so. The list runs on a clock the test moves
// and the test runs the idle timer's expire itself, so no scheduling
// stall can trim the list early.
func TestKeptIdleTrim(t *testing.T) {
	const idle = time.Minute
	clock := time.Unix(0, 0)
	k := newKept[[]byte](4)
	k.idle, k.now = idle, func() time.Time { return clock }
	k.put(make([]byte, 10))
	// Busy for several idle periods: every expire finds a recent use.
	for i := 0; i < 10; i++ {
		clock = clock.Add(idle / 2)
		b, _ := k.get()
		k.put(b)
		clock = clock.Add(idle / 2)
		k.expire()
		if n := k.count(); n != 1 {
			t.Fatalf("a list in use was trimmed: %d kept", n)
		}
	}
	clock = clock.Add(idle)
	k.expire()
	if n := k.count(); n != 0 {
		t.Fatalf("an idle list still keeps %d values", n)
	}
	// Trimmed, it keeps working and arms its timer again.
	k.put(make([]byte, 20))
	k.mu.Lock()
	armed := k.armed
	k.mu.Unlock()
	if n := k.count(); n != 1 || !armed {
		t.Fatalf("%d kept, armed %v after a put on a trimmed list", n, armed)
	}
}

// TestKeptIdleTimer: the idle timer itself trims an unused list.
func TestKeptIdleTimer(t *testing.T) {
	k := newKept[[]byte](4)
	k.idle = 10 * time.Millisecond
	k.put(make([]byte, 10))
	for deadline := time.Now().Add(5 * time.Second); k.count() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an idle list still keeps %d values", k.count())
		}
	}
}
