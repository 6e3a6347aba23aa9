package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != Zero {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	if len(c.queue) != 0 {
		t.Fatalf("new clock has %d pending events", len(c.queue))
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := NewClock()
	var order []int
	c.After(30*time.Millisecond, func(Time) { order = append(order, 3) })
	c.After(10*time.Millisecond, func(Time) { order = append(order, 1) })
	c.After(20*time.Millisecond, func(Time) { order = append(order, 2) })
	end := c.Run()
	if want := Time(30 * time.Millisecond); end != want {
		t.Errorf("final time %v, want %v", end, want)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("fire order %v, want [1 2 3]", order)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(Time(5), func(Time) { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d]=%d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestEventSeesCurrentTime(t *testing.T) {
	c := NewClock()
	var saw Time
	c.After(time.Second, func(now Time) { saw = now })
	c.Run()
	if saw != Time(time.Second) {
		t.Errorf("callback saw %v, want 1s", saw)
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	var hits int
	var tick func(now Time)
	tick = func(now Time) {
		hits++
		if hits < 5 {
			c.After(time.Millisecond, tick)
		}
	}
	c.After(time.Millisecond, tick)
	end := c.Run()
	if hits != 5 {
		t.Errorf("got %d ticks, want 5", hits)
	}
	if end != Time(5*time.Millisecond) {
		t.Errorf("end time %v, want 5ms", end)
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.After(time.Second, func(Time) { fired = true })
	if !c.Cancel(e) {
		t.Fatal("Cancel reported failure for pending event")
	}
	if c.Cancel(e) {
		t.Fatal("second Cancel should report false")
	}
	c.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if c.Cancel(nil) {
		t.Error("Cancel(nil) should report false")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	c := NewClock()
	var order []int
	var events []*Event
	for i := 0; i < 8; i++ {
		i := i
		events = append(events, c.After(time.Duration(i+1)*time.Millisecond, func(Time) {
			order = append(order, i)
		}))
	}
	c.Cancel(events[3])
	c.Cancel(events[6])
	c.Run()
	want := []int{0, 1, 2, 4, 5, 7}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	c := NewClock()
	var fired []int
	c.After(time.Second, func(Time) { fired = append(fired, 1) })
	c.After(3*time.Second, func(Time) { fired = append(fired, 2) })
	c.RunUntil(Time(2 * time.Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Errorf("fired %v after RunUntil(2s), want [1]", fired)
	}
	if c.Now() != Time(2*time.Second) {
		t.Errorf("clock at %v, want 2s", c.Now())
	}
	if len(c.queue) != 1 {
		t.Errorf("%d pending, want 1", len(c.queue))
	}
	c.Run()
	if len(fired) != 2 {
		t.Errorf("second event never fired")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	c := NewClock()
	c.RunFor(time.Second)
	c.RunFor(time.Second)
	if c.Now() != Time(2*time.Second) {
		t.Errorf("clock at %v, want 2s", c.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := NewClock()
	c.After(time.Second, func(Time) {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	c.At(Time(1), func(Time) {})
}

func TestNilCallbackPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	c.At(Time(1), nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	c.After(-time.Second, func(Time) {})
}

func TestFiredCounter(t *testing.T) {
	c := NewClock()
	for i := 0; i < 7; i++ {
		c.At(Time(i), func(Time) {})
	}
	c.Run()
	if c.Fired() != 7 {
		t.Errorf("Fired=%d, want 7", c.Fired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewClock()
		var times []Time
		for _, d := range delays {
			c.After(time.Duration(d)*time.Microsecond, func(now Time) {
				times = append(times, now)
			})
		}
		c.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * time.Millisecond).String(); got != "1.5s" {
		t.Errorf("String()=%q, want 1.5s", got)
	}
	if got := Forever.String(); got != "forever" {
		t.Errorf("Forever.String()=%q", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Zero.Add(time.Second)
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Errorf("Sub=%v, want 500ms", b.Sub(a))
	}
	if a.Duration() != time.Second {
		t.Errorf("Duration=%v, want 1s", a.Duration())
	}
}
