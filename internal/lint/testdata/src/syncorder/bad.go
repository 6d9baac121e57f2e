// Package syncorder is the golden fixture for the concurrency-discipline
// analyzer: channel sends under a held mutex.
package syncorder

import "sync"

type server struct {
	mu sync.Mutex
	ch chan int
}

// notify blocks inside the critical section: a slow receiver convoys every
// other Lock caller.
func (s *server) notify(v int) {
	s.mu.Lock()
	s.ch <- v // want "channel send while holding server.mu"
	s.mu.Unlock()
}
