package baseline

import (
	"testing"
	"time"

	"mits/internal/sim"
)

func TestBroadcastingSchedule(t *testing.T) {
	b := Broadcasting{Period: 7 * 24 * time.Hour}
	// Right at a broadcast slot: no wait.
	if d := b.AccessDelay(sim.Zero, 0); d != 0 {
		t.Errorf("delay at slot %v", d)
	}
	// One hour after the slot: wait a week minus an hour.
	now := sim.Zero.Add(time.Hour)
	if d := b.AccessDelay(now, 0); d != 7*24*time.Hour-time.Hour {
		t.Errorf("delay %v", d)
	}
	// Offset shifts the slot.
	b2 := Broadcasting{Period: 24 * time.Hour, offset: 9 * time.Hour}
	if d := b2.AccessDelay(sim.Zero, 0); d != 9*time.Hour {
		t.Errorf("offset delay %v", d)
	}
	if _, ok := b.InteractionRTT(); ok {
		t.Error("broadcast claims interactivity")
	}
	if b.VideoSupport(1.5e6) != 1 {
		t.Error("TV cannot show video?")
	}
	if b.UpdateDelay() != 7*24*time.Hour {
		t.Error("update delay should be the cycle")
	}
	if (Broadcasting{}).AccessDelay(now, 0) != 0 {
		t.Error("zero-period broadcast should be immediate")
	}
}

func TestCDROM(t *testing.T) {
	c := CDROM{Shipping: 72 * time.Hour}
	if d := c.AccessDelay(sim.Zero, 100<<20); d != 72*time.Hour {
		t.Errorf("first access %v", d)
	}
	owned := CDROM{Shipping: 72 * time.Hour, owned: true}
	if d := owned.AccessDelay(sim.Zero, 100<<20); d != 0 {
		t.Errorf("owned access %v", d)
	}
	// A course beyond 650 MB cannot ship on one disc.
	if d := owned.AccessDelay(sim.Zero, 2<<30); d < 300*24*time.Hour {
		t.Errorf("oversize course delay %v", d)
	}
	if rtt, ok := c.InteractionRTT(); !ok || rtt > time.Second {
		t.Error("CD-ROM should be locally interactive")
	}
	if c.UpdateDelay() != 72*time.Hour {
		t.Error("update requires shipping")
	}
}

func TestNarrowband(t *testing.T) {
	modem := Narrowband{Bandwidth: 28800, RTT: 200 * time.Millisecond}
	// 1 MB scenario at 28.8 kb/s ≈ 291s.
	d := modem.AccessDelay(sim.Zero, 1<<20)
	if d < 290*time.Second || d > 295*time.Second {
		t.Errorf("modem download of 1MB = %v, want ≈291s", d)
	}
	if got := modem.VideoSupport(1.5e6); got > 0.02 {
		t.Errorf("modem MPEG-1 support %.3f, want ≈0.02 (stalls)", got)
	}
	if got := modem.VideoSupport(10000); got != 1 {
		t.Errorf("low-rate stream support %.3f", got)
	}
	if rtt, ok := modem.InteractionRTT(); !ok || rtt != 200*time.Millisecond {
		t.Error("narrowband interaction wrong")
	}
}

func TestBroadbandReference(t *testing.T) {
	bb := Broadband{Bandwidth: 155e6, RTT: 5 * time.Millisecond}
	d := bb.AccessDelay(sim.Zero, 1<<20)
	if d > 100*time.Millisecond {
		t.Errorf("broadband 1MB access %v", d)
	}
	if bb.VideoSupport(1.5e6) != 1 {
		t.Error("broadband should stream MPEG-1")
	}
	if bb.UpdateDelay() != 5*time.Millisecond {
		t.Error("broadband update is one RTT")
	}
}

func TestCompareShape(t *testing.T) {
	// The qualitative table of §1.3: MITS wins or ties on every axis.
	models := []Model{
		Broadcasting{Period: 7 * 24 * time.Hour},
		CDROM{Shipping: 72 * time.Hour},
		Narrowband{Bandwidth: 28800, RTT: 200 * time.Millisecond},
		Broadband{Bandwidth: 155e6, RTT: 5 * time.Millisecond},
	}
	var arrivals []sim.Time
	rng := sim.NewRNG(4)
	for i := 0; i < 200; i++ {
		arrivals = append(arrivals, sim.Time(rng.Intn(int(7*24*time.Hour))))
	}
	rows := Compare(models, arrivals, 1<<20)
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	byName := make(map[string]Comparison, len(rows))
	for _, r := range rows {
		byName[r.Model] = r
	}
	mits := byName["mits-broadband"]
	for name, r := range byName {
		if name == "mits-broadband" {
			continue
		}
		if mits.MeanAccessDelay > r.MeanAccessDelay {
			t.Errorf("MITS access %v worse than %s %v", mits.MeanAccessDelay, name, r.MeanAccessDelay)
		}
		if r.Interactive && mits.InteractionRTT > r.InteractionRTT {
			t.Errorf("MITS interaction %v worse than %s %v", mits.InteractionRTT, name, r.InteractionRTT)
		}
		if mits.UpdateDelay > r.UpdateDelay {
			t.Errorf("MITS update %v worse than %s %v", mits.UpdateDelay, name, r.UpdateDelay)
		}
		if mits.MPEG1VideoSupport < r.MPEG1VideoSupport {
			t.Errorf("MITS video %.2f worse than %s %.2f", mits.MPEG1VideoSupport, name, r.MPEG1VideoSupport)
		}
	}
	if byName["broadcasting"].Interactive {
		t.Error("broadcast row claims interaction")
	}
	if byName["narrowband-29kbps"].MPEG1VideoSupport > 0.05 {
		t.Error("narrowband row claims video support")
	}
	// Broadcast mean wait ≈ half the period.
	bc := byName["broadcasting"].MeanAccessDelay
	if bc < 2*24*time.Hour || bc > 5*24*time.Hour {
		t.Errorf("broadcast mean wait %v, want ≈3.5 days", bc)
	}
}
