// Package vtime provides the virtual (simulated) time base used by every
// timing model in the repository.
//
// All costs in the simulation — PCIe transfers, kernel executions, disk
// writes, IPC round trips — are expressed as vtime.Duration and accumulate
// on per-node vtime.Clock instances. Wall-clock time never enters any
// reported result, which keeps every experiment deterministic and fast
// regardless of the machine running the reproduction.
package vtime

import (
	"fmt"
	"sync"
)

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Time is an instant on a virtual timeline, in nanoseconds since the
// simulation epoch (construction of the owning Clock).
type Time int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Infinity is the explicit "never completes" duration: the runtime a
// scheduler predicts for work placed on a degenerate device (zero compute
// rate), or the gain of a move away from one. It is a typed rejection, not
// a large number — arithmetic on it must go through SatAdd/SatSub so it
// stays absorbing instead of overflowing.
const Infinity Duration = 1<<63 - 1

// IsInf reports whether the duration is the Infinity sentinel.
func (d Duration) IsInf() bool { return d == Infinity }

// SatAdd adds two durations, saturating at Infinity: adding anything to an
// infinite duration (or overflowing) stays infinite.
func (d Duration) SatAdd(e Duration) Duration {
	if d.IsInf() || e.IsInf() {
		return Infinity
	}
	s := d + e
	if d > 0 && e > 0 && s < 0 { // overflow
		return Infinity
	}
	return s
}

// SatSub subtracts e from d with Infinity absorbing: an infinite d minus
// any finite e stays infinite, and subtracting an infinite e from a finite
// d yields the most negative duration (an unpayable cost).
func (d Duration) SatSub(e Duration) Duration {
	if d.IsInf() {
		return Infinity
	}
	if e.IsInf() {
		return -Infinity
	}
	return d - e
}

// FromSeconds converts a floating-point number of seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis reports the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration with a unit chosen by magnitude.
func (d Duration) String() string {
	if d.IsInf() {
		return "+inf"
	}
	if d == -Infinity {
		return "-inf"
	}
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	case abs >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports the instant as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add offsets an instant by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as seconds since the epoch.
func (t Time) String() string { return fmt.Sprintf("t+%.6fs", t.Seconds()) }

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a monotone virtual clock. A Clock is shared by every process on
// a simulated node: blocking operations advance it, and asynchronous device
// work is modelled as timeline arithmetic against it (see internal/ocl).
//
// Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// NewClock returns a clock positioned at the epoch.
func NewClock() *Clock { return &Clock{} }

// Fork returns a new clock at the instant c is at: a timeline that runs
// beside c's from here on. What the fork is charged does not move c; the
// two meet again where the owner of c waits for something the fork timed
// (AdvanceTo).
func (c *Clock) Fork() *Clock { return &Clock{now: c.Now()} }

// Now reports the current virtual instant.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new instant.
// Negative durations are ignored: virtual time is monotone.
func (c *Clock) Advance(d Duration) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to instant t if t is in the future,
// and returns the (possibly unchanged) current instant. It models a
// blocking wait until t.
func (c *Clock) AdvanceTo(t Time) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// StallTracker accumulates labelled stall time: virtual time a caller
// spent parked waiting on something other than its own work — an MPI
// survivor waiting out another rank's restore, a queue waiting on a
// recovering peer. Labels keep independent totals so one tracker can
// account for several stall sources. Safe for concurrent use.
type StallTracker struct {
	mu     sync.Mutex
	total  Duration
	events int
	byLbl  map[string]Duration
}

// Add charges d of stall time under label. Non-positive durations are
// ignored (a waiter released at its own arrival time did not stall).
func (t *StallTracker) Add(label string, d Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byLbl == nil {
		t.byLbl = map[string]Duration{}
	}
	t.total += d
	t.events++
	t.byLbl[label] += d
}

// Total reports the accumulated stall time across all labels.
func (t *StallTracker) Total() Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events reports how many stalls were recorded.
func (t *StallTracker) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// ByLabel returns a copy of the per-label stall totals.
func (t *StallTracker) ByLabel() map[string]Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]Duration, len(t.byLbl))
	for k, v := range t.byLbl {
		out[k] = v
	}
	return out
}

// Stopwatch measures spans of virtual time against a Clock.
type Stopwatch struct {
	clock *Clock
	start Time
}

// NewStopwatch starts a stopwatch at the clock's current instant.
func NewStopwatch(c *Clock) *Stopwatch { return &Stopwatch{clock: c, start: c.Now()} }

// Elapsed reports virtual time elapsed since construction or the last Reset.
func (s *Stopwatch) Elapsed() Duration { return s.clock.Now().Sub(s.start) }

// Reset restarts the stopwatch at the clock's current instant and returns
// the span that had elapsed before the reset.
func (s *Stopwatch) Reset() Duration {
	e := s.Elapsed()
	s.start = s.clock.Now()
	return e
}
