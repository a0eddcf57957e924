package kept

import (
	"testing"
	"time"
)

// TestKeptBound holds a list to its count bound: a full list drops its
// oldest value for the one it is offered, and a get hands back the
// newest.
func TestKeptBound(t *testing.T) {
	l := New[struct{}, []byte](2)
	for i := 1; i <= 3; i++ {
		l.Put(struct{}{}, make([]byte, 100*i))
	}
	if n := l.Len(); n != 2 {
		t.Fatalf("%d kept after 3 puts, want the bound 2", n)
	}
	if b, ok := l.Get(struct{}{}); !ok || cap(b) != 300 {
		t.Fatalf("get: ok=%v cap=%d, want the newest, cap 300", ok, cap(b))
	}
	if b, ok := l.Get(struct{}{}); !ok || cap(b) != 200 {
		t.Fatalf("second get: ok=%v cap=%d, want cap 200: the oldest went to keep the newest", ok, cap(b))
	}
	l.Put(struct{}{}, make([]byte, 10))
	l.Drop()
	if _, ok := l.Get(struct{}{}); ok || l.Len() != 0 {
		t.Fatalf("after a drop: got a value, or %d kept", l.Len())
	}
}

// TestKeptKeys: a get hands out the newest value of its key and leaves
// the rest in order; a get of a key with no value takes nothing; a full
// list drops the oldest value whatever its key.
func TestKeptKeys(t *testing.T) {
	l := New[string, int](4)
	for i, k := range []string{"a", "b", "a", "b"} {
		l.Put(k, i)
	}
	if v, ok := l.Get("a"); !ok || v != 2 {
		t.Fatalf("get a: %d, %v; want the newest a, 2", v, ok)
	}
	if _, ok := l.Get("c"); ok || l.Len() != 3 {
		t.Fatalf("get c: ok=%v with %d kept; want nothing taken from 3", ok, l.Len())
	}
	l.Put("c", 4)
	l.Put("c", 5)
	if _, ok := l.Get("a"); ok {
		t.Fatal("the oldest value, a's, survived two puts on a full list")
	}
	var bs []int
	for v, ok := l.Get("b"); ok; v, ok = l.Get("b") {
		bs = append(bs, v)
	}
	if len(bs) != 2 || bs[0] != 3 || bs[1] != 1 || l.Len() != 2 {
		t.Fatalf("b's values %v with %d left, want [3 1] and c's two", bs, l.Len())
	}
}

// TestKeptIdleTrim: a list nobody uses drops what it keeps, and use
// keeps it from doing so. The list runs on a clock the test moves and
// the test runs the idle timer's expire itself, so no scheduling stall
// can trim the list early.
func TestKeptIdleTrim(t *testing.T) {
	const idle = time.Minute
	clock := time.Unix(0, 0)
	l := New[struct{}, []byte](4)
	l.idle, l.now = idle, func() time.Time { return clock }
	l.Put(struct{}{}, make([]byte, 10))
	// Busy for several idle periods: every expire finds a recent use.
	for i := 0; i < 10; i++ {
		clock = clock.Add(idle / 2)
		b, _ := l.Get(struct{}{})
		l.Put(struct{}{}, b)
		clock = clock.Add(idle / 2)
		l.expire()
		if n := l.Len(); n != 1 {
			t.Fatalf("a list in use was trimmed: %d kept", n)
		}
	}
	clock = clock.Add(idle)
	l.expire()
	if n := l.Len(); n != 0 {
		t.Fatalf("an idle list still keeps %d values", n)
	}
	// Trimmed, it keeps working and arms its timer again.
	l.Put(struct{}{}, make([]byte, 20))
	l.mu.Lock()
	armed := l.armed
	l.mu.Unlock()
	if n := l.Len(); n != 1 || !armed {
		t.Fatalf("%d kept, armed %v after a put on a trimmed list", n, armed)
	}
}

// TestKeptIdleTimer: the idle timer itself trims an unused list.
func TestKeptIdleTimer(t *testing.T) {
	l := New[struct{}, []byte](4)
	l.idle = 10 * time.Millisecond
	l.Put(struct{}{}, make([]byte, 10))
	for deadline := time.Now().Add(5 * time.Second); l.Len() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an idle list still keeps %d values", l.Len())
		}
	}
}
