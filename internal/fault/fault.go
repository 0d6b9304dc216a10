// Package fault holds the seeded schedule every fault injector runs on.
// The proxy transport (ipc), the disk and the store node (proc) each embed
// one Schedule and keep only what their faults do; the rank injector (mpi)
// has no cadence and shares only the Splitmix draw. Same seed, same
// operation sequence, same faults, on every injector.
package fault

import "sync"

// Schedule decides which operations of a seeded plan fault: every
// every-th operation after the first skip, at most max times (0 =
// unlimited), never while suspended. It counts operations and faults and
// logs one event of type E per fault.
//
// Embed it by value. Its mutex also guards the embedding injector's own
// fields; Due, Draw and Record are called with it held.
type Schedule[E any] struct {
	sync.Mutex
	rng                      uint64
	every, skip, max         int
	ops, injected, suspended int
	events                   []E
}

// Init arms the schedule for a plan. It runs before the injector is
// shared, so it takes no lock.
func (s *Schedule[E]) Init(seed uint64, every, skip, max int) {
	s.rng = seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	s.every, s.skip, s.max = every, skip, max
}

// Due counts one operation and reports its 1-based index and whether the
// plan faults it.
func (s *Schedule[E]) Due() (op int, fire bool) {
	s.ops++
	fire = s.every > 0 && s.suspended == 0 && s.ops > s.skip &&
		(s.max <= 0 || s.injected < s.max) && s.ops%s.every == 0
	return s.ops, fire
}

// Draw returns the schedule's next seeded value.
func (s *Schedule[E]) Draw() uint64 { return Splitmix(&s.rng) }

// Record counts one injected fault and logs its event.
func (s *Schedule[E]) Record(e E) {
	s.injected++
	s.events = append(s.events, e)
}

// Suspend pauses injection (nestable). Recovery paths suspend the injector
// so that recovering cannot itself be faulted into a livelock; operations
// still count while suspended.
func (s *Schedule[E]) Suspend() {
	s.Lock()
	defer s.Unlock()
	s.suspended++
}

// Resume undoes one Suspend.
func (s *Schedule[E]) Resume() {
	s.Lock()
	defer s.Unlock()
	if s.suspended > 0 {
		s.suspended--
	}
}

// Ops reports how many operations the schedule has seen.
func (s *Schedule[E]) Ops() int {
	s.Lock()
	defer s.Unlock()
	return s.ops
}

// Injected reports how many faults have fired.
func (s *Schedule[E]) Injected() int {
	s.Lock()
	defer s.Unlock()
	return s.injected
}

// Events returns the injected faults in order.
func (s *Schedule[E]) Events() []E {
	s.Lock()
	defer s.Unlock()
	out := make([]E, len(s.events))
	copy(out, s.events)
	return out
}

// Splitmix advances a splitmix64 state and returns its next value.
func Splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
