// Package spare keeps the scratch buffers of finished work for the next
// piece of work in a long-lived process: the read buffers and request
// batches of a decode. A List holds at most a fixed number of values
// and drops every one of them once it has gone idle, so what a daemon
// retains between jobs has a bound in bytes and falls to zero when no
// work arrives.
//
// A List is an optimization only. A value taken from it carries stale
// contents the taker must overwrite before reading.
package spare

import (
	"sync"
	"time"
)

// IdleAfter is how long a List keeps its values after the last Get or
// Put.
const IdleAfter = 10 * time.Second

// List is a bounded free list of values of one kind. Safe for
// concurrent use.
type List[T any] struct {
	max  int
	size func(T) int64
	idle time.Duration
	now  func() time.Time

	mu    sync.Mutex
	free  []T         // guarded by mu
	bytes int64       // size of free, guarded by mu
	last  time.Time   // last Get or Put, guarded by mu
	timer *time.Timer // guarded by mu
	armed bool        // a trim is scheduled, guarded by mu
}

// New returns a List that keeps at most max values, of size(v) bytes
// each, and drops them all once IdleAfter has passed without a Get or
// Put.
func New[T any](max int, size func(T) int64) *List[T] {
	return newList(max, IdleAfter, size)
}

func newList[T any](max int, idle time.Duration, size func(T) int64) *List[T] {
	return &List[T]{max: max, size: size, idle: idle, now: time.Now}
}

// Get takes a kept value; ok is false when there is none.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = l.now()
	n := len(l.free)
	if n == 0 {
		return v, false
	}
	v = l.free[n-1]
	var zero T
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	l.bytes -= l.size(v)
	return v, true
}

// Put offers v for a later Get and reports whether the List kept it;
// a full List drops it.
func (l *List[T]) Put(v T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = l.now()
	if len(l.free) >= l.max {
		return false
	}
	l.free = append(l.free, v)
	l.bytes += l.size(v)
	if !l.armed {
		l.armed = true
		if l.timer == nil {
			l.timer = time.AfterFunc(l.idle, l.expire)
		} else {
			l.timer.Reset(l.idle)
		}
	}
	return true
}

// expire runs on the idle timer: it trims the List when nothing has
// used it for the idle period, and otherwise looks again once the
// period since the last use has passed.
func (l *List[T]) expire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if wait := l.idle - l.now().Sub(l.last); wait > 0 {
		l.timer.Reset(wait)
		return
	}
	l.armed = false
	l.trimLocked()
}

// Trim drops every kept value now.
func (l *List[T]) Trim() {
	l.mu.Lock()
	l.trimLocked()
	l.mu.Unlock()
}

//tracelint:holds mu
func (l *List[T]) trimLocked() {
	clear(l.free)
	l.free = nil
	l.bytes = 0
}

// Bytes returns the size of the values kept.
func (l *List[T]) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}
