// Package kept holds values a process reuses from one unit of work to
// the next: the decode scratch of package trace (read buffers, request
// batches) and the engine's reconstruction targets. Each use is one
// List, bounded by a count its owner fixes and emptied once nothing has
// used it for Idle, so what a daemon retains between jobs has a bound
// and falls to zero when no work arrives.
package kept

import (
	"sync"
	"time"
)

// Idle is how long a list holds its values after the last get or put.
const Idle = 10 * time.Second

// List is a bounded list of values of one kind, shared by every user in
// the process. Each value is put under a key and taken back by it: a
// list whose values are interchangeable (decode scratch) puts all of
// them under struct{}{}, one whose values are not (targets of different
// configs) under what tells them apart. It holds at most max values and
// drops all of them once Idle has passed without a get or put. Unlike a
// sync.Pool it keeps its values across garbage collections: a decode
// that needs more scratch than the one before it still finds all that
// one handed back. A get hands out the newest value of its key; a put on
// a full list drops the oldest value of any key, so the values in use
// lately are the ones kept. Safe for concurrent use.
type List[K comparable, V any] struct {
	max  int
	idle time.Duration
	now  func() time.Time

	mu    sync.Mutex
	free  []entry[K, V] // oldest first, guarded by mu
	last  time.Time     // last get or put, guarded by mu
	timer *time.Timer   // guarded by mu
	armed bool          // a trim is scheduled, guarded by mu
}

// entry is one kept value under its key.
type entry[K comparable, V any] struct {
	key K
	v   V
}

// New returns an empty list that holds at most max values.
func New[K comparable, V any](max int) *List[K, V] {
	return &List[K, V]{max: max, idle: Idle, now: time.Now}
}

// Get takes the newest value kept under key; ok is false when there is
// none.
func (l *List[K, V]) Get(key K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = l.now()
	n := len(l.free)
	for i := n - 1; i >= 0; i-- {
		if l.free[i].key == key {
			v = l.free[i].v
			copy(l.free[i:], l.free[i+1:])
			clear(l.free[n-1:])
			l.free = l.free[:n-1]
			return v, true
		}
	}
	return v, false
}

// Put offers v under key for a later Get. A full list drops its oldest
// value to keep v.
func (l *List[K, V]) Put(key K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = l.now()
	if len(l.free) >= l.max {
		n := copy(l.free, l.free[1:])
		clear(l.free[n:])
		l.free = l.free[:n]
	}
	l.free = append(l.free, entry[K, V]{key, v})
	if !l.armed {
		l.armed = true
		if l.timer == nil {
			l.timer = time.AfterFunc(l.idle, l.expire)
		} else {
			l.timer.Reset(l.idle)
		}
	}
}

// Len returns how many values the list keeps, under every key.
func (l *List[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// Drop drops every kept value now, as the idle timer does.
func (l *List[K, V]) Drop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.free)
	l.free = nil
}

// expire runs on the idle timer: it drops every kept value when nothing
// has used the list for the idle period, and otherwise looks again once
// the period since the last use has passed.
func (l *List[K, V]) expire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if wait := l.idle - l.now().Sub(l.last); wait > 0 {
		l.timer.Reset(wait)
		return
	}
	l.armed = false
	clear(l.free)
	l.free = nil
}
