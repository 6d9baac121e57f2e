// Package syncorder is the golden fixture for the concurrency-discipline
// analyzer: sends under locks and lock-order inversions against the declared
// partial order.
//
//bfetch:lockorder server.mu < server.outMu
package syncorder

import "sync"

type server struct {
	mu    sync.Mutex
	outMu sync.Mutex
	ch    chan int
	n     int
}

// notify blocks inside the critical section: a slow receiver convoys every
// other Lock caller.
func (s *server) notify(v int) {
	s.mu.Lock()
	s.ch <- v // want "channel send while holding server.mu"
	s.mu.Unlock()
}

// inverted acquires mu under outMu, contradicting the declared order.
func (s *server) inverted() {
	s.outMu.Lock()
	s.mu.Lock() // want "contradicts declared lock order server.mu < server.outMu"
	s.n++
	s.mu.Unlock()
	s.outMu.Unlock()
}
