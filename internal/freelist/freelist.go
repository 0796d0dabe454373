package freelist

import "sync"

// List is a free list of *T. The zero value is empty and ready to use; a
// List must not be copied after first use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns an idle item, or a new zero one when none is idle.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

// Put makes x idle. The caller must hold no reference into it.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
