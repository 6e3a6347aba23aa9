// The ATM model is a single-goroutine simulation on sim.Clock: neither
// this package nor its tests start a goroutine, so the race detector
// has nothing to observe here, yet it makes the package's tests about
// ten times slower. They run in the plain `go test ./...` pass only.

//go:build !race

package atm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mits/internal/sim"
)

// testNet builds: hostA — sw1 — sw2 — hostB with 155 Mb/s links (OC-3,
// the classic ATM rate) and 1ms propagation each.
func testNet(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := New()
	a := n.AddHost("hostA")
	b := n.AddHost("hostB")
	s1 := n.AddSwitch("sw1")
	s2 := n.AddSwitch("sw2")
	n.Connect(a, s1, 155e6, time.Millisecond)
	n.Connect(s1, s2, 155e6, time.Millisecond)
	n.Connect(s2, b, 155e6, time.Millisecond)
	return n, a, b
}

func TestEndToEndPDUDelivery(t *testing.T) {
	n, a, b := testNet(t)
	var got []byte
	conn, err := n.Open(a, b, CBRContract(10e6), OpenOptions{
		Deliver: func(pdu []byte, sent, now sim.Time) { got = pdu },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	msg := bytes.Repeat([]byte("courseware!"), 100)
	if err := conn.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Clock().Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d bytes, want %d intact", len(got), len(msg))
	}
	m := conn.Metrics
	if m.PDUsSent != 1 || m.PDUsDelivered != 1 || m.PDUErrors != 0 {
		t.Errorf("metrics %+v", m)
	}
	if m.CellsSent != int64(cellsForPDU(len(msg))) {
		t.Errorf("CellsSent=%d, want %d", m.CellsSent, cellsForPDU(len(msg)))
	}
	if m.Delay.N() != 1 || m.Delay.Mean() <= float64(3*time.Millisecond) {
		t.Errorf("delay %v should exceed 3ms of propagation", time.Duration(m.Delay.Mean()))
	}
}

func TestManyPDUsInOrder(t *testing.T) {
	n, a, b := testNet(t)
	var seq []byte
	conn, err := n.Open(a, b, CBRContract(50e6), OpenOptions{
		Deliver: func(pdu []byte, _, _ sim.Time) { seq = append(seq, pdu[0]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pdu := make([]byte, 200)
		pdu[0] = byte(i)
		if err := conn.Send(pdu); err != nil {
			t.Fatal(err)
		}
	}
	n.Clock().Run()
	if len(seq) != 50 {
		t.Fatalf("delivered %d PDUs, want 50", len(seq))
	}
	for i, v := range seq {
		if v != byte(i) {
			t.Fatalf("PDU %d out of order (got first byte %d)", i, v)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	n, a, b := testNet(t)
	// 155 Mb/s ≈ 365566 cells/s. Reserve most of it.
	c1, err := n.Open(a, b, TrafficDescriptor{Category: CBR, PCR: 300000, CDVT: time.Millisecond}, OpenOptions{})
	if err != nil {
		t.Fatalf("first connection refused: %v", err)
	}
	_, err = n.Open(a, b, TrafficDescriptor{Category: CBR, PCR: 100000, CDVT: time.Millisecond}, OpenOptions{})
	if !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("over-committing connection admitted (err=%v)", err)
	}
	// Best-effort UBR reserves nothing and is always admitted.
	if _, err := n.Open(a, b, UBRContract(155e6), OpenOptions{}); err != nil {
		t.Errorf("UBR connection refused: %v", err)
	}
	// Closing releases capacity.
	c1.Close()
	if _, err := n.Open(a, b, TrafficDescriptor{Category: CBR, PCR: 100000, CDVT: time.Millisecond}, OpenOptions{}); err != nil {
		t.Errorf("connection refused after capacity released: %v", err)
	}
}

func TestNoRoute(t *testing.T) {
	n := New()
	a := n.AddHost("a")
	b := n.AddHost("b")
	if _, err := n.Open(a, b, CBRContract(1e6), OpenOptions{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err=%v, want ErrNoRoute", err)
	}
	if _, err := n.Open(a, a, CBRContract(1e6), OpenOptions{}); err == nil {
		t.Error("self-connection accepted")
	}
}

func TestRouteDoesNotTransitHosts(t *testing.T) {
	// a — c — b where c is a HOST must not route; hosts don't forward.
	n := New()
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	n.Connect(a, c, 155e6, time.Millisecond)
	n.Connect(c, b, 155e6, time.Millisecond)
	if _, err := n.Open(a, b, CBRContract(1e6), OpenOptions{}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("routed through a host: err=%v", err)
	}
}

func TestMultiHopRouting(t *testing.T) {
	n := New()
	a := n.AddHost("a")
	b := n.AddHost("b")
	var prev node = a
	for i := 0; i < 5; i++ {
		s := n.AddSwitch(string(rune('A' + i)))
		n.Connect(prev, s, 155e6, 100*time.Microsecond)
		prev = s
	}
	n.Connect(prev, b, 155e6, 100*time.Microsecond)
	delivered := 0
	conn, err := n.Open(a, b, CBRContract(10e6), OpenOptions{
		Deliver: func([]byte, sim.Time, sim.Time) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(make([]byte, 1000))
	n.Clock().Run()
	if delivered != 1 {
		t.Fatalf("delivered=%d over 5-switch path", delivered)
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	n := New()
	n.AddHost("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	n.AddSwitch("x")
}

func TestSendOnClosedConnection(t *testing.T) {
	n, a, b := testNet(t)
	conn, _ := n.Open(a, b, CBRContract(1e6), OpenOptions{})
	conn.Close()
	conn.Close() // idempotent
	if err := conn.Send([]byte("x")); err == nil {
		t.Error("Send on closed connection succeeded")
	}
}

// runVideoFlow builds the shared-bottleneck topology and plays a paced
// 5 Mb/s CBR stream from a to b, optionally with an unshaped UBR flood
// from c to d crossing the same bottleneck. It returns the two
// connections after the simulation drains.
func runVideoFlow(t *testing.T, withFlood bool) (video, flood *Connection) {
	t.Helper()
	n := New()
	n.BufferCells = 128
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	d := n.AddHost("d")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	n.Connect(a, s1, 155e6, 100*time.Microsecond)
	n.Connect(c, s1, 155e6, 100*time.Microsecond)
	n.Connect(s1, s2, 25e6, 100*time.Microsecond) // bottleneck
	n.Connect(s2, b, 155e6, 100*time.Microsecond)
	n.Connect(s2, d, 155e6, 100*time.Microsecond)

	var err error
	video, err = n.Open(a, b, CBRContract(5e6), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if withFlood {
		flood, err = n.Open(c, d, UBRContract(150e6), OpenOptions{Unshaped: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			flood.Send(make([]byte, 4000))
		}
	}
	// The video source generates a 1000-byte PDU every 2ms (4 Mb/s
	// payload under a 5 Mb/s contract), like a paced MPEG stream.
	for i := 0; i < 200; i++ {
		n.Clock().At(sim.Time(i)*sim.Time(2*time.Millisecond), func(sim.Time) {
			video.Send(make([]byte, 1000))
		})
	}
	n.Clock().Run()
	return video, flood
}

func TestCongestionDropsBestEffortNotCBR(t *testing.T) {
	// The mechanism behind the paper's broadband QoS claim (§3.3):
	// a CBR flow within contract is isolated from a UBR flood sharing
	// its bottleneck — zero loss, and delay unchanged vs an idle net.
	alone, _ := runVideoFlow(t, false)
	video, flood := runVideoFlow(t, true)

	if video.Metrics.CellsDropped != 0 {
		t.Errorf("CBR flow lost %d cells under congestion", video.Metrics.CellsDropped)
	}
	if video.Metrics.PDUsDelivered != 200 {
		t.Errorf("CBR delivered %d/200 PDUs", video.Metrics.PDUsDelivered)
	}
	if flood.Metrics.CellsDropped == 0 {
		t.Error("UBR flood saw no drops at a 6× oversubscribed bottleneck")
	}
	idle := alone.Metrics.Delay.Percentile(99)
	congested := video.Metrics.Delay.Percentile(99)
	if congested > idle*1.2 {
		t.Errorf("CBR p99 under congestion %v vs idle %v — priority isolation failed",
			time.Duration(congested), time.Duration(idle))
	}
}

func TestEdgePolicingDropsViolatingRealTime(t *testing.T) {
	run := func(policing bool) ConnMetrics {
		n, a, b := testNet(t)
		n.Policing = policing
		// Contract 1 Mb/s but blast unshaped at access-link speed.
		conn, err := n.Open(a, b, CBRContract(1e6), OpenOptions{Unshaped: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			conn.Send(make([]byte, 4000))
		}
		n.Clock().Run()
		return conn.Metrics
	}
	// The burst overflows the host's own access buffer either way; the
	// edge policer must refuse cells beyond those.
	open, policed := run(false), run(true)
	if policed.CellsDropped <= open.CellsDropped {
		t.Errorf("policed run dropped %d cells, unpoliced %d; want more with policing",
			policed.CellsDropped, open.CellsDropped)
	}
}

func TestShapedTrafficPassesPolicing(t *testing.T) {
	n, a, b := testNet(t)
	n.Policing = true
	conn, err := n.Open(a, b, CBRContract(2e6), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		conn.Send(make([]byte, 2000))
	}
	n.Clock().Run()
	if conn.Metrics.CellsDropped != 0 {
		t.Errorf("shaped conformant traffic lost %d cells to policing", conn.Metrics.CellsDropped)
	}
	if conn.Metrics.PDUsDelivered != 50 {
		t.Errorf("delivered %d/50", conn.Metrics.PDUsDelivered)
	}
}

func TestShapingPacesAtContractRate(t *testing.T) {
	n, a, b := testNet(t)
	conn, err := n.Open(a, b, CBRContract(1e6), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 Mb/s payload ⇒ 125 kB/s ⇒ 100 kB takes ≈0.8s to emit.
	var last sim.Time
	conn2, _ := n.Open(a, b, CBRContract(1e6), OpenOptions{})
	_ = conn2
	done := func(pdu []byte, sent, now sim.Time) { last = now }
	conn.deliver = done
	for i := 0; i < 10; i++ {
		conn.Send(make([]byte, 10000))
	}
	n.Clock().Run()
	if last < sim.Time(700*time.Millisecond) {
		t.Errorf("100kB at 1Mb/s finished at %v, want ≥700ms (shaper not pacing)", last)
	}
}

func TestLinkAccounting(t *testing.T) {
	n, a, b := testNet(t)
	conn, _ := n.Open(a, b, CBRContract(10e6), OpenOptions{})
	conn.Send(make([]byte, 480))
	n.Clock().Run()
	m := conn.Metrics
	if m.CellsSent != int64(cellsForPDU(480)) {
		t.Errorf("sent %d cells, want %d", m.CellsSent, cellsForPDU(480))
	}
	if m.CellsDropped != 0 || m.PDUErrors != 0 || m.PDUsDelivered != 1 {
		t.Errorf("dropped %d cells, %d PDU errors, %d delivered; want 0, 0, 1", m.CellsDropped, m.PDUErrors, m.PDUsDelivered)
	}
}

func TestFIFOAblationRemovesIsolation(t *testing.T) {
	// With per-class queueing the paced CBR flow is isolated from the
	// flood (see TestCongestionDropsBestEffortNotCBR). With the FIFO
	// ablation the same flood steals its buffer and delays its cells.
	runWith := func(fifo bool) *Connection {
		n := New()
		n.FIFO = fifo
		n.BufferCells = 128
		a := n.AddHost("a")
		b := n.AddHost("b")
		c := n.AddHost("c")
		d := n.AddHost("d")
		s1 := n.AddSwitch("s1")
		s2 := n.AddSwitch("s2")
		n.Connect(a, s1, 155e6, 100*time.Microsecond)
		n.Connect(c, s1, 155e6, 100*time.Microsecond)
		n.Connect(s1, s2, 25e6, 100*time.Microsecond)
		n.Connect(s2, b, 155e6, 100*time.Microsecond)
		n.Connect(s2, d, 155e6, 100*time.Microsecond)
		video, err := n.Open(a, b, CBRContract(5e6), OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		flood, err := n.Open(c, d, UBRContract(60e6), OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			flood.Send(make([]byte, 4000))
		}
		for i := 0; i < 200; i++ {
			n.Clock().At(sim.Time(i)*sim.Time(2*time.Millisecond), func(sim.Time) {
				video.Send(make([]byte, 1000))
			})
		}
		n.Clock().Run()
		return video
	}
	priority := runWith(false)
	fifo := runWith(true)
	if priority.Metrics.CellsDropped != 0 {
		t.Errorf("priority queueing dropped %d CBR cells", priority.Metrics.CellsDropped)
	}
	if fifo.Metrics.CellsDropped == 0 && fifo.Metrics.Delay.Percentile(99) <= priority.Metrics.Delay.Percentile(99)*2 {
		t.Errorf("FIFO ablation shows no degradation: drops=%d p99=%v vs priority p99=%v",
			fifo.Metrics.CellsDropped,
			time.Duration(fifo.Metrics.Delay.Percentile(99)),
			time.Duration(priority.Metrics.Delay.Percentile(99)))
	}
}

func TestABRAdaptsToCongestion(t *testing.T) {
	// An ABR source shares a 10 Mb/s bottleneck with a CBR flow taking
	// 6 Mb/s. Rate feedback must (a) back the ABR flow off under
	// congestion instead of losing cells wholesale like UBR, and
	// (b) ramp it up when the path is idle.
	build := func(withCBR bool) (*Network, *Connection) {
		n := New()
		n.BufferCells = 256
		a := n.AddHost("a")
		b := n.AddHost("b")
		c := n.AddHost("c")
		d := n.AddHost("d")
		s1 := n.AddSwitch("s1")
		s2 := n.AddSwitch("s2")
		n.Connect(a, s1, 155e6, 200*time.Microsecond)
		n.Connect(c, s1, 155e6, 200*time.Microsecond)
		n.Connect(s1, s2, 10e6, 200*time.Microsecond)
		n.Connect(s2, b, 155e6, 200*time.Microsecond)
		n.Connect(s2, d, 155e6, 200*time.Microsecond)
		if withCBR {
			cbr, err := n.Open(c, d, CBRContract(6e6), OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// A paced 6 Mb/s stream for 2 seconds.
			for i := 0; i < 1000; i++ {
				n.Clock().At(sim.Time(i)*sim.Time(2*time.Millisecond), func(sim.Time) {
					cbr.Send(make([]byte, 1400))
				})
			}
		}
		abr, err := n.Open(a, b, ABRContract(20e6, 100e3), OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The ABR source always has data: 2 MB backlog.
		for i := 0; i < 500; i++ {
			abr.Send(make([]byte, 4000))
		}
		return n, abr
	}

	// Idle path: the source ramps up from ICR toward PCR.
	n1, idle := build(false)
	icr := idle.abr.acr
	n1.Clock().Run()
	if idle.RateChanges() == 0 {
		t.Fatal("no rate feedback on idle path")
	}
	if idle.abr.acr <= icr {
		t.Errorf("idle ACR %.0f did not ramp up from ICR %.0f", idle.abr.acr, icr)
	}
	if idle.Metrics.PDUsDelivered != 500 {
		t.Errorf("idle delivered %d/500", idle.Metrics.PDUsDelivered)
	}

	// Congested path: feedback caps the rate and loss stays moderate
	// relative to an equivalent unshaped UBR flood (which loses most of
	// its cells at this buffer depth).
	n2, congested := build(true)
	n2.Clock().Run()
	if congested.RateChanges() == 0 {
		t.Fatal("no rate feedback under congestion")
	}
	lossRate := float64(congested.Metrics.CellsDropped) / float64(congested.Metrics.CellsSent)
	if lossRate > 0.10 {
		t.Errorf("ABR loss rate %.1f%% — feedback not controlling the source", 100*lossRate)
	}
	if congested.Metrics.PDUsDelivered < 450 {
		t.Errorf("ABR delivered %d/500 under congestion", congested.Metrics.PDUsDelivered)
	}
}

func TestABRContractValidation(t *testing.T) {
	if err := ABRContract(10e6, 1e6).Validate(); err != nil {
		t.Errorf("valid ABR contract rejected: %v", err)
	}
	bad := ABRContract(1e6, 10e6) // MCR above PCR
	if err := bad.Validate(); err == nil {
		t.Error("MCR > PCR accepted")
	}
	if got := ABRContract(10e6, 1e6).GuaranteedRate(); got <= 0 {
		t.Error("ABR MCR not reserved by CAC")
	}
	// Non-ABR connections carry no ABR state.
	n := New()
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("s")
	n.Connect(a, sw, 155e6, time.Millisecond)
	n.Connect(sw, b, 155e6, time.Millisecond)
	conn, err := n.Open(a, b, CBRContract(1e6), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if conn.abr != nil || conn.RateChanges() != 0 {
		t.Error("CBR connection reports ABR state")
	}
}
