// Fixture for the guarded analyzer: fields annotated `// guarded by
// <mu>` may only be accessed in functions that lock that mutex (or
// carry //tracelint:holds <mu>).
package guarded

// mutex stands in for sync.Mutex; the analyzer keys on the Lock/RLock
// call shape, not the concrete type.
type mutex struct{ held bool }

func (m *mutex) Lock()    {}
func (m *mutex) Unlock()  {}
func (m *mutex) RLock()   {}
func (m *mutex) RUnlock() {}

type server struct {
	mu mutex

	// jobs is the live job table. // guarded by mu
	jobs map[string]int
	next int // guarded by mu
	cold int // not guarded: no annotation
}

func (s *server) bad() int {
	return s.next // want `access to s\.next \(guarded by mu\) outside s\.mu\.Lock\(\)`
}

func (s *server) badMap(id string) {
	s.jobs[id] = 1 // want `access to s\.jobs \(guarded by mu\)`
}

func (s *server) good(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[id] = s.next
	s.next++
	return s.next
}

func (s *server) goodRLock() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.next
}

func (s *server) lockAfterAccess() int {
	n := s.next // want `access to s\.next \(guarded by mu\)`
	s.mu.Lock()
	defer s.mu.Unlock()
	return n + s.next
}

// countLocked is a helper whose documented contract is "caller must
// hold mu".
//
//tracelint:holds mu
func (s *server) countLocked() int {
	return len(s.jobs) + s.next
}

func (s *server) unguardedFieldIsFree() int {
	return s.cold
}

func newServer() *server {
	// Composite-literal construction predates sharing; exempt.
	return &server{jobs: make(map[string]int), next: 1}
}

func (s *server) suppressed() int {
	//tracelint:ignore guarded single-writer startup path, documented in the fixture
	return s.next
}

// list is a generic guarded type: its methods see instantiated field
// objects, which must still resolve to the annotated declaration.
type list[T any] struct {
	mu   mutex
	free []T // guarded by mu
}

func (l *list[T]) badGeneric() int {
	return len(l.free) // want `access to l\.free \(guarded by mu\) outside l\.mu\.Lock\(\)`
}

func (l *list[T]) goodGeneric(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
