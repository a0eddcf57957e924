package spare

import (
	"testing"
	"time"
)

func size(b []byte) int64 { return int64(cap(b)) }

// TestListBound holds a List to its count bound and its byte account.
func TestListBound(t *testing.T) {
	l := newList(2, time.Hour, size)
	for i, want := range []bool{true, true, false} {
		if got := l.Put(make([]byte, 100)); got != want {
			t.Fatalf("put %d: kept=%v, want %v", i, got, want)
		}
	}
	if len(l.free) != 2 || l.Bytes() != 200 {
		t.Fatalf("len %d bytes %d, want 2 and 200", len(l.free), l.Bytes())
	}
	if b, ok := l.Get(); !ok || cap(b) != 100 {
		t.Fatalf("get: %v %d", ok, cap(b))
	}
	if l.Bytes() != 100 {
		t.Fatalf("bytes %d after a get, want 100", l.Bytes())
	}
	l.Trim()
	if _, ok := l.Get(); ok || len(l.free) != 0 || l.Bytes() != 0 {
		t.Fatalf("after Trim: len %d bytes %d", len(l.free), l.Bytes())
	}
}

// TestListIdleTrim: a List nobody uses drops what it keeps, and use
// keeps it from doing so. The List runs on a clock the test moves and
// the test runs the idle timer's expire itself, so no scheduling stall
// can trim the List early.
func TestListIdleTrim(t *testing.T) {
	const idle = time.Minute
	clock := time.Unix(0, 0)
	l := newList(4, idle, size)
	l.now = func() time.Time { return clock }
	l.Put(make([]byte, 10))
	// Busy for several idle periods: every expire finds a recent use.
	for i := 0; i < 10; i++ {
		clock = clock.Add(idle / 2)
		b, _ := l.Get()
		l.Put(b)
		clock = clock.Add(idle / 2)
		l.expire()
		if l.Bytes() != 10 {
			t.Fatalf("a List in use was trimmed: %d bytes", l.Bytes())
		}
	}
	clock = clock.Add(idle)
	l.expire()
	if l.Bytes() != 0 || len(l.free) != 0 {
		t.Fatalf("an idle List still keeps %d bytes", l.Bytes())
	}
	// Trimmed, it keeps working and arms its timer again.
	l.Put(make([]byte, 20))
	if l.Bytes() != 20 || !l.armed {
		t.Fatalf("bytes %d, armed %v after a put on a trimmed List", l.Bytes(), l.armed)
	}
}

// TestListIdleTimer: the idle timer itself trims an unused List.
func TestListIdleTimer(t *testing.T) {
	l := newList(4, 10*time.Millisecond, size)
	l.Put(make([]byte, 10))
	for deadline := time.Now().Add(5 * time.Second); l.Bytes() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an idle List still keeps %d bytes", l.Bytes())
		}
	}
}
