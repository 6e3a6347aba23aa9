// The ATM model is a single-goroutine simulation on sim.Clock: neither
// this package nor its tests start a goroutine, so the race detector
// has nothing to observe here, yet it makes the package's tests about
// ten times slower. They run in the plain `go test ./...` pass only.

//go:build !race

package atm

import (
	"testing"
	"time"

	"mits/internal/sim"
)

func TestGCRAAcceptsContractedRate(t *testing.T) {
	g := NewGCRA(1000, 0) // 1000 cells/s → 1ms spacing
	now := sim.Zero
	for i := 0; i < 100; i++ {
		if !g.Conforms(now) {
			t.Fatalf("cell %d at contracted spacing rejected", i)
		}
		now = now.Add(time.Millisecond)
	}
}

func TestGCRARejectsBurstBeyondTolerance(t *testing.T) {
	g := NewGCRA(1000, 0)
	if !g.Conforms(sim.Zero) {
		t.Fatal("first cell rejected")
	}
	if g.Conforms(sim.Zero.Add(10 * time.Microsecond)) {
		t.Error("back-to-back cell conformed with zero tolerance")
	}
	if !g.Conforms(sim.Zero.Add(time.Millisecond)) {
		t.Error("properly spaced cell rejected after violation")
	}
}

func TestGCRAToleranceAdmitsJitter(t *testing.T) {
	g := NewGCRA(1000, 200*time.Microsecond)
	now := sim.Zero
	// Cells arriving 100µs early each time stay within τ=200µs.
	for i := 0; i < 3; i++ {
		if !g.Conforms(now) {
			t.Fatalf("jittered cell %d rejected", i)
		}
		now = now.Add(900 * time.Microsecond)
	}
	// But sustained early arrival accumulates and eventually violates.
	g2 := NewGCRA(1000, 200*time.Microsecond)
	now = sim.Zero
	violations := 0
	for i := 0; i < 50; i++ {
		if !g2.Conforms(now) {
			violations++
		}
		now = now.Add(800 * time.Microsecond) // 25% over rate
	}
	if violations == 0 {
		t.Error("sustained 25% overrate never violated")
	}
}

func TestGCRAInfiniteRate(t *testing.T) {
	g := NewGCRA(0, 0)
	for i := 0; i < 10; i++ {
		if !g.Conforms(sim.Zero) {
			t.Fatal("unpoliced GCRA rejected a cell")
		}
	}
	if g.NextConforming(sim.Time(5)) != sim.Time(5) {
		t.Error("unpoliced NextConforming should be now")
	}
}

func TestGCRANextConforming(t *testing.T) {
	g := NewGCRA(1000, 0)
	g.Conforms(sim.Zero)
	next := g.NextConforming(sim.Zero)
	if next != sim.Zero.Add(time.Millisecond) {
		t.Errorf("NextConforming=%v, want 1ms", next)
	}
	if !g.Conforms(next) {
		t.Error("cell at NextConforming instant rejected")
	}
}

// Property: emitting every cell exactly at NextConforming always conforms
// and never exceeds the contracted long-run rate.
func TestGCRAShapingProperty(t *testing.T) {
	g := NewGCRA(4000, 500*time.Microsecond)
	now := sim.Zero
	const cells = 1000
	for i := 0; i < cells; i++ {
		now = g.NextConforming(now)
		if !g.Conforms(now) {
			t.Fatalf("cell %d at NextConforming rejected", i)
		}
	}
	elapsed := now.Duration()
	rate := float64(cells-1) / elapsed.Seconds()
	if rate > 4000*1.01 {
		t.Errorf("shaped rate %.0f cells/s exceeds contract 4000", rate)
	}
}

func TestDualGCRAAllowsBurstWithinMBS(t *testing.T) {
	td := TrafficDescriptor{Category: RtVBR, PCR: 10000, SCR: 1000, MBS: 10, CDVT: 0}
	d := NewDualGCRA(td)
	now := sim.Zero
	// A burst of MBS cells at peak rate must conform.
	for i := 0; i < td.MBS; i++ {
		if !d.Conforms(now) {
			t.Fatalf("burst cell %d rejected within MBS", i)
		}
		now = now.Add(100 * time.Microsecond) // peak spacing
	}
	// Continuing at peak rate beyond MBS must violate the SCR bucket.
	violated := false
	for i := 0; i < 20; i++ {
		if !d.Conforms(now) {
			violated = true
			break
		}
		now = now.Add(100 * time.Microsecond)
	}
	if !violated {
		t.Error("peak-rate traffic beyond MBS never violated SCR bucket")
	}
}

func TestDualGCRASustainedRateConforms(t *testing.T) {
	td := TrafficDescriptor{Category: RtVBR, PCR: 10000, SCR: 1000, MBS: 10, CDVT: 0}
	d := NewDualGCRA(td)
	now := sim.Zero
	for i := 0; i < 100; i++ {
		if !d.Conforms(now) {
			t.Fatalf("sustained-rate cell %d rejected", i)
		}
		now = now.Add(time.Millisecond) // exactly SCR spacing
	}
}

func TestDualGCRARejectionLeavesStateClean(t *testing.T) {
	td := TrafficDescriptor{Category: RtVBR, PCR: 1000, SCR: 1000, MBS: 1, CDVT: 0}
	d := NewDualGCRA(td)
	if !d.Conforms(sim.Zero) {
		t.Fatal("first cell rejected")
	}
	// Immediate second cell violates; state must not advance.
	if d.Conforms(sim.Zero) {
		t.Fatal("immediate cell conformed")
	}
	if !d.Conforms(sim.Zero.Add(time.Millisecond)) {
		t.Error("conforming cell rejected after a violation — state advanced on reject")
	}
}

func TestTrafficDescriptorValidate(t *testing.T) {
	good := []TrafficDescriptor{
		{Category: CBR, PCR: 100},
		{Category: RtVBR, PCR: 100, SCR: 50, MBS: 5},
		{Category: UBR, PCR: 1},
		CBRContract(1e6),
		VBRContract(1e6, 4e6, 100),
		UBRContract(64e3),
	}
	for i, td := range good {
		if err := td.Validate(); err != nil {
			t.Errorf("good contract %d rejected: %v", i, err)
		}
	}
	bad := []TrafficDescriptor{
		{Category: CBR, PCR: 0},
		{Category: RtVBR, PCR: 100, SCR: 0, MBS: 5},
		{Category: RtVBR, PCR: 100, SCR: 200, MBS: 5},
		{Category: NrtVBR, PCR: 100, SCR: 50, MBS: 0},
		{Category: ServiceCategory(99), PCR: 100},
	}
	for i, td := range bad {
		if err := td.Validate(); err == nil {
			t.Errorf("bad contract %d accepted", i)
		}
	}
}

func TestGuaranteedRate(t *testing.T) {
	if got := (TrafficDescriptor{Category: CBR, PCR: 100}).GuaranteedRate(); got != 100 {
		t.Errorf("CBR guaranteed=%v, want PCR", got)
	}
	if got := (TrafficDescriptor{Category: RtVBR, PCR: 100, SCR: 40, MBS: 2}).GuaranteedRate(); got != 40 {
		t.Errorf("VBR guaranteed=%v, want SCR", got)
	}
	if got := (TrafficDescriptor{Category: UBR, PCR: 100}).GuaranteedRate(); got != 0 {
		t.Errorf("UBR guaranteed=%v, want 0", got)
	}
}

func TestServiceCategoryString(t *testing.T) {
	if CBR.String() != "CBR" || UBR.String() != "UBR" {
		t.Error("category names wrong")
	}
	if !CBR.RealTime() || !RtVBR.RealTime() || UBR.RealTime() {
		t.Error("RealTime classification wrong")
	}
}
