//go:build unix

package ipc

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestIdleRingParks: every proxy serves a ring by default, so a proxy whose
// application has gone quiet must not hold a CPU. Once its spin budget is
// spent, the service loop parks on the submission queue's condvar and
// stays parked until the next submission, at any GOMAXPROCS.
func TestIdleRingParks(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := NewServer()
			Register(s, "add", func(r addReq) (addResp, error) {
				return addResp{Sum: r.A + r.B}, nil
			})
			ring := ringPair(t, s, nil)
			call := func() {
				t.Helper()
				var resp addResp
				if _, err := ring.Call("add", addReq{A: 2, B: 40}, &resp); err != nil || resp.Sum != 42 {
					t.Fatalf("call: %v, sum %d", err, resp.Sum)
				}
			}
			call()

			deadline := time.Now().Add(5 * time.Second)
			for !parked(ring.sq) {
				if time.Now().After(deadline) {
					t.Fatal("the service loop has not parked 5 s after its last call")
				}
				time.Sleep(time.Millisecond)
			}
			// A spinning loop would burn the whole window on one CPU.
			const window = 200 * time.Millisecond
			before := cpuTime(t)
			time.Sleep(window)
			if used := cpuTime(t) - before; used > window/4 {
				t.Errorf("an idle ring used %v of CPU in %v", used, window)
			}
			if !parked(ring.sq) {
				t.Error("the service loop woke without a submission")
			}
			call() // a parked loop still serves
		})
	}
}

// parked reports whether a waiter sleeps on q.
func parked[T any](q *spsc[T]) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sleepers > 0
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
