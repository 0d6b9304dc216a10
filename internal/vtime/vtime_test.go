package vtime

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDurationConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3 {
		t.Errorf("Millis = %v, want 3", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{1500 * Microsecond, "1.500ms"},
		{12 * Microsecond, "12.000µs"},
		{999, "999ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestInfinity(t *testing.T) {
	if !Infinity.IsInf() {
		t.Error("Infinity.IsInf() = false")
	}
	if (2 * Second).IsInf() {
		t.Error("a finite duration reports IsInf")
	}
	if got := Infinity.String(); got != "+inf" {
		t.Errorf("Infinity.String() = %q, want \"+inf\"", got)
	}
	if got := (-Infinity).String(); got != "-inf" {
		t.Errorf("(-Infinity).String() = %q, want \"-inf\"", got)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	cases := []struct {
		a, b, add, sub Duration
	}{
		{2 * Second, 3 * Second, 5 * Second, -Second},
		{Infinity, Second, Infinity, Infinity},
		{Second, Infinity, Infinity, -Infinity},
		{Infinity, Infinity, Infinity, Infinity},
		// Plain addition of two huge finite durations would wrap negative.
		{Infinity - 1, Infinity - 1, Infinity, 0},
	}
	for _, c := range cases {
		if got := c.a.SatAdd(c.b); got != c.add {
			t.Errorf("%v.SatAdd(%v) = %v, want %v", c.a, c.b, got, c.add)
		}
		if got := c.a.SatSub(c.b); got != c.sub {
			t.Errorf("%v.SatSub(%v) = %v, want %v", c.a, c.b, got, c.sub)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(2 * Second)
	b := a.Add(500 * Millisecond)
	if d := b.Sub(a); d != 500*Millisecond {
		t.Errorf("Sub = %v, want 500ms", d)
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Errorf("Max(%v,%v) wrong", a, b)
	}
}

func TestClockMonotone(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(1 * Second)
	c.Advance(-5 * Second) // ignored
	if got := c.Now(); got != Time(1*Second) {
		t.Errorf("after negative Advance: %v, want t+1s", got)
	}
	c.AdvanceTo(Time(500 * Millisecond)) // in the past; ignored
	if got := c.Now(); got != Time(1*Second) {
		t.Errorf("after past AdvanceTo: %v, want t+1s", got)
	}
	c.AdvanceTo(Time(3 * Second))
	if got := c.Now(); got != Time(3*Second) {
		t.Errorf("after future AdvanceTo: %v, want t+3s", got)
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	c := NewClock()
	f := func(deltas []int32) bool {
		prev := c.Now()
		for _, d := range deltas {
			c.Advance(Duration(d))
			now := c.Now()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != Time(8000*Microsecond) {
		t.Errorf("concurrent advance lost updates: %v, want t+8ms", got)
	}
}

func TestClockFork(t *testing.T) {
	c := NewClock()
	c.Advance(3 * Millisecond)
	f := c.Fork()
	if f.Now() != c.Now() {
		t.Fatalf("fork at %v, parent at %v", f.Now(), c.Now())
	}
	f.Advance(10 * Millisecond)
	c.Advance(Millisecond)
	if c.Now() != Time(4*Millisecond) || f.Now() != Time(13*Millisecond) {
		t.Errorf("parent at %v, fork at %v: the timelines are not independent", c.Now(), f.Now())
	}
	if c.AdvanceTo(f.Now()) != f.Now() {
		t.Error("the parent could not wait for the fork")
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	sw := NewStopwatch(c)
	c.Advance(2 * Second)
	if e := sw.Elapsed(); e != 2*Second {
		t.Errorf("Elapsed = %v, want 2s", e)
	}
	if e := sw.Reset(); e != 2*Second {
		t.Errorf("Reset returned %v, want 2s", e)
	}
	c.Advance(1 * Second)
	if e := sw.Elapsed(); e != 1*Second {
		t.Errorf("Elapsed after reset = %v, want 1s", e)
	}
}

func TestStallTracker(t *testing.T) {
	var st StallTracker
	st.Add("barrier", 2*Second)
	st.Add("recv", Second)
	st.Add("barrier", Second)
	st.Add("recv", 0)       // ignored
	st.Add("recv", -Second) // ignored
	if st.Total() != 4*Second {
		t.Errorf("Total = %v, want 4s", st.Total())
	}
	if st.Events() != 3 {
		t.Errorf("Events = %d, want 3", st.Events())
	}
	by := st.ByLabel()
	if by["barrier"] != 3*Second || by["recv"] != Second {
		t.Errorf("ByLabel = %v", by)
	}
	// The returned map is a copy.
	by["barrier"] = 0
	if st.ByLabel()["barrier"] != 3*Second {
		t.Error("ByLabel exposed internal state")
	}
}

func TestStallTrackerConcurrent(t *testing.T) {
	var st StallTracker
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				st.Add("x", Microsecond)
			}
		}()
	}
	wg.Wait()
	if st.Total() != 800*Microsecond || st.Events() != 800 {
		t.Errorf("concurrent adds lost updates: %v / %d", st.Total(), st.Events())
	}
}
