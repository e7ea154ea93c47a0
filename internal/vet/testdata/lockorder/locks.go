// Fixture for the lockorder analyzer. Parsed, never compiled.
package locks

import "sync"

type Spec struct {
	Combine  func(o any) error
	Finalize func(r any) error
}

type store struct {
	mu   sync.Mutex
	spec Spec
	vals []float64
}

// Inline window: callback between Lock and Unlock is flagged.
func (s *store) mergeBad(o any) error {
	s.mu.Lock()
	err := s.spec.Combine(o) //want:lockorder
	s.mu.Unlock()
	return err
}

// Deferred unlock holds the lock to function end: still flagged.
func (s *store) mergeDeferBad(o any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spec.Combine(o) //want:lockorder
}

// TryLock guard: held inside the if body.
func (s *store) tryBad(o any) {
	if s.mu.TryLock() {
		_ = s.spec.Combine(o) //want:lockorder
		s.mu.Unlock()
	}
}

// Release before the callback: clean.
func (s *store) mergeGood(o any) error {
	s.mu.Lock()
	snapshot := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	_ = snapshot
	return s.spec.Combine(o)
}

// Lock guards only engine state; callback on the unlocked path: clean.
func (s *store) window(r any) error {
	s.mu.Lock()
	s.vals = append(s.vals, 1)
	s.mu.Unlock()
	return s.spec.Finalize(r)
}
