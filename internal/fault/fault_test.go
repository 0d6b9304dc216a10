package fault

import (
	"reflect"
	"testing"
)

// TestSchedule drives the cadence gate one row at a time: which operations
// fire, and what Ops, Injected and Events report after n operations.
// Suspends and resumes listed at an operation run just before it.
func TestSchedule(t *testing.T) {
	cases := []struct {
		name             string
		every, skip, max int
		n                int
		suspend, resume  []int
		want             []int
	}{
		{name: "every 0 never fires", every: 0, n: 10},
		{name: "every below 0 never fires", every: -2, n: 10},
		{name: "every 1", every: 1, n: 5, want: []int{1, 2, 3, 4, 5}},
		{name: "every 3", every: 3, n: 10, want: []int{3, 6, 9}},
		{name: "skip first", every: 1, skip: 3, n: 6, want: []int{4, 5, 6}},
		{name: "skip keeps the cadence on op numbers", every: 3, skip: 4, n: 12, want: []int{6, 9, 12}},
		{name: "max", every: 1, skip: 3, max: 2, n: 10, want: []int{4, 5}},
		{name: "max 0 is unlimited", every: 2, n: 8, want: []int{2, 4, 6, 8}},
		{name: "nested suspend", every: 1, n: 8, suspend: []int{1, 1}, resume: []int{6, 7}, want: []int{7, 8}},
		{name: "suspended ops count but fire no fault", every: 1, max: 2, n: 6, suspend: []int{1}, resume: []int{4}, want: []int{4, 5}},
		{name: "resume without suspend", every: 1, n: 3, resume: []int{1}, want: []int{1, 2, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s Schedule[int]
			s.Init(1, c.every, c.skip, c.max)
			for i := 1; i <= c.n; i++ {
				for _, at := range c.suspend {
					if at == i {
						s.Suspend()
					}
				}
				for _, at := range c.resume {
					if at == i {
						s.Resume()
					}
				}
				s.Lock()
				if op, fire := s.Due(); fire {
					s.Record(op)
				} else if op != i {
					t.Errorf("Due numbered op %d as %d", i, op)
				}
				s.Unlock()
			}
			want := c.want
			if want == nil {
				want = []int{}
			}
			if got := s.Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("fired on %v, want %v", got, want)
			}
			if s.Ops() != c.n || s.Injected() != len(c.want) {
				t.Errorf("Ops=%d Injected=%d, want %d and %d", s.Ops(), s.Injected(), c.n, len(c.want))
			}
		})
	}
}

// TestSplitmix checks the draw against the splitmix64 reference sequence
// from state 0, and that Init mixes the seed before the first draw.
func TestSplitmix(t *testing.T) {
	var state uint64
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Splitmix(&state); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	var s Schedule[int]
	s.Init(0, 1, 0, 0)
	state = 0x2545f4914f6cdd1d
	if got, want := s.Draw(), Splitmix(&state); got != want {
		t.Fatalf("seed 0 draws %#x, want %#x", got, want)
	}
}
