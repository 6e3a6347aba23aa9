// A conference runs on the ATM model's sim.Clock in one goroutine:
// neither this package nor its tests start a goroutine, so the race
// detector has nothing to observe here, yet it makes these tests over
// ten times slower. They run in the plain `go test ./...` pass only.

//go:build !race

package conference

import (
	"strings"
	"testing"

	"mits/internal/lint/leaktest"
	"time"

	"mits/internal/atm"
)

// confNet builds student — campus — metro — teacher with a constrained
// metro trunk, optionally congested by bulk cross traffic.
func confNet(t *testing.T, congested bool) (*atm.Network, *atm.Host, *atm.Host) {
	t.Helper()
	n := atm.New()
	n.BufferCells = 96
	student := n.AddHost("student")
	teacher := n.AddHost("teacher")
	x1 := n.AddHost("bulk1")
	x2 := n.AddHost("bulk2")
	campus := n.AddSwitch("campus")
	metro := n.AddSwitch("metro")
	n.Connect(student, campus, 155e6, 500*time.Microsecond)
	n.Connect(x1, campus, 155e6, 500*time.Microsecond)
	n.Connect(campus, metro, 10e6, 2*time.Millisecond)
	n.Connect(metro, teacher, 155e6, 500*time.Microsecond)
	n.Connect(metro, x2, 155e6, 500*time.Microsecond)
	if congested {
		flood, err := n.Open(x1, x2, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 11000; i++ {
			flood.Send(make([]byte, 4000))
		}
	}
	return n, student, teacher
}

func TestAudioOnlyCallOnIdleNetwork(t *testing.T) {
	n, a, b := confNet(t, false)
	s, err := Dial(n, a, b, Options{Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Run()
	if !s.Usable() {
		t.Fatalf("idle-network call unusable: %+v", s.Quality)
	}
	for i := range s.Quality {
		q := &s.Quality[i].Audio
		if q.framesSent != 500 || q.framesDelivered != 500 {
			t.Errorf("party %d audio %d/%d frames", i, q.framesDelivered, q.framesSent)
		}
		if mean := time.Duration(q.Latency.Mean()); mean > 20*time.Millisecond {
			t.Errorf("party %d mouth-to-ear %v", i, mean)
		}
		if q.lateFrames != 0 {
			t.Errorf("party %d late frames %d", i, q.lateFrames)
		}
	}
}

func TestVideoCallAddsStreams(t *testing.T) {
	n, a, b := confNet(t, false)
	s, err := Dial(n, a, b, Options{Duration: 5 * time.Second, VideoEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Run()
	for i := range s.Quality {
		if s.Quality[i].video.framesDelivered != 50 {
			t.Errorf("party %d video %d/50 frames", i, s.Quality[i].video.framesDelivered)
		}
	}
	if !s.Usable() {
		t.Error("video call unusable on idle network")
	}
}

func TestReservedCallSurvivesCongestion(t *testing.T) {
	leaktest.Check(t)
	n, a, b := confNet(t, true)
	s, err := Dial(n, a, b, Options{Duration: 10 * time.Second, VideoEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Run()
	if !s.Usable() {
		t.Errorf("reserved call unusable under congestion: audio loss %.2f%%, late %.2f%%",
			100*s.Quality[0].Audio.LossRate(), 100*s.Quality[0].Audio.LateRate())
	}
}

func TestBestEffortCallCollapsesUnderCongestion(t *testing.T) {
	n, a, b := confNet(t, true)
	s, err := Dial(n, a, b, Options{Duration: 10 * time.Second, BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Run()
	if s.Usable() {
		t.Errorf("best-effort call usable under congestion: loss %.2f%% late %.2f%%",
			100*s.Quality[0].Audio.LossRate(), 100*s.Quality[0].Audio.LateRate())
	}
}

func TestDialRefusedAtCapacity(t *testing.T) {
	leaktest.Check(t)
	n, a, b := confNet(t, false)
	// The 10 Mb/s trunk fits a handful of reserved video calls; dialing
	// more must hit admission control, and the refusal names the leg.
	for i := 0; i < 100; i++ {
		if _, err := Dial(n, a, b, Options{Duration: time.Second, VideoEnabled: true}); err != nil {
			if !strings.HasPrefix(err.Error(), "conference: ") {
				t.Errorf("refusal %q does not name the conference leg", err)
			}
			return
		}
	}
	t.Fatal("admission control never refused a call")
}

func TestQualityAccessors(t *testing.T) {
	q := StreamQuality{framesSent: 100, framesDelivered: 90, lateFrames: 9}
	if q.LossRate() != 0.1 {
		t.Errorf("loss %v", q.LossRate())
	}
	if q.LateRate() != 0.1 {
		t.Errorf("late %v", q.LateRate())
	}
	var empty StreamQuality
	if empty.LossRate() != 0 || empty.LateRate() != 0 {
		t.Error("empty quality rates")
	}
}
