// The ATM model is a single-goroutine simulation on sim.Clock: neither
// this package nor its tests start a goroutine, so the race detector
// has nothing to observe here, yet it makes the package's tests about
// ten times slower. They run in the plain `go test ./...` pass only.

//go:build !race

package atm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVCString(t *testing.T) {
	if got := (VC{VPI: 2, VCI: 33}).String(); got != "2/33" {
		t.Errorf("VC.String()=%q, want 2/33", got)
	}
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 39, 40, 41, 48, 100, 1000, 65535} {
		pdu := make([]byte, n)
		for i := range pdu {
			pdu[i] = byte(i * 7)
		}
		cells, err := Segment(VC{VCI: 42}, 1, 0, pdu)
		if err != nil {
			t.Fatalf("Segment(%d bytes): %v", n, err)
		}
		if want := cellsForPDU(n); len(cells) != want {
			t.Errorf("%d bytes → %d cells, want %d", n, len(cells), want)
		}
		for i, c := range cells {
			if got := c.EndOfPDU(); got != (i == len(cells)-1) {
				t.Errorf("cell %d/%d EndOfPDU=%v", i, len(cells), got)
			}
			if c.Seq != int64(i) {
				t.Errorf("cell %d Seq=%d", i, c.Seq)
			}
		}
		var r Reassembler
		var got []byte
		done := false
		for _, c := range cells {
			if p, ok := r.Push(c); ok {
				got, done = p, true
			}
		}
		if !done {
			t.Fatalf("%d bytes: PDU never completed", n)
		}
		if !bytes.Equal(got, pdu) {
			t.Errorf("%d bytes: reassembled PDU differs", n)
		}
	}
}

func TestSegmentRejectsOversizePDU(t *testing.T) {
	if _, err := Segment(VC{}, 0, 0, make([]byte, MaxPDUSize+1)); err == nil {
		t.Error("oversize PDU accepted")
	}
}

func TestReassemblerDetectsLostCell(t *testing.T) {
	pdu := make([]byte, 500)
	for i := range pdu {
		pdu[i] = byte(i)
	}
	cells, _ := Segment(VC{}, 0, 0, pdu)
	var r Reassembler
	pdus, rejected := pushAll(&r, append(cells[:2:2], cells[3:]...)) // drop one middle cell
	if len(pdus) != 0 {
		t.Fatal("corrupted PDU reassembled successfully")
	}
	if rejected != 1 {
		t.Errorf("rejected end cells = %d, want 1", rejected)
	}
}

// pushAll pushes cells in order and returns the PDUs reassembled and the
// number of end-of-PDU cells that Push refused with (nil, false).
func pushAll(r *Reassembler, cells []Cell) (pdus [][]byte, rejected int) {
	for _, c := range cells {
		p, ok := r.Push(c)
		switch {
		case ok:
			pdus = append(pdus, p)
		case c.EndOfPDU() && p == nil:
			rejected++
		}
	}
	return pdus, rejected
}

func TestReassemblerDetectsCorruptPayload(t *testing.T) {
	cells, _ := Segment(VC{}, 0, 0, []byte("hello telelearning world, this is a test PDU"))
	cells[0].Payload[3] ^= 0xff
	var r Reassembler
	pdus, rejected := pushAll(&r, cells)
	if len(pdus) != 0 {
		t.Error("corrupt payload passed CRC")
	}
	if rejected != 1 {
		t.Errorf("rejected end cells = %d, want 1", rejected)
	}
}

func TestReassemblerRecoversAfterError(t *testing.T) {
	bad, _ := Segment(VC{}, 0, 0, bytes.Repeat([]byte("first pdu that will be truncated "), 8))
	good, _ := Segment(VC{}, 0, int64(len(bad)), []byte("second pdu arrives intact"))
	var r Reassembler
	// End cell of the bad PDU lost; next PDU's cells arrive. The merged
	// buffer fails CRC at good's end cell, then the stream recovers.
	pdus, rejected := pushAll(&r, append(bad[:len(bad)-1:len(bad)-1], good...))
	if len(pdus) != 0 || rejected != 1 {
		t.Errorf("merged PDU: %d reassembled, %d rejected end cells, want 0 and 1", len(pdus), rejected)
	}
	again, _ := Segment(VC{}, 0, 99, []byte("third pdu arrives intact too"))
	var got []byte
	for _, c := range again {
		if p, ok := r.Push(c); ok {
			got = p
		}
	}
	if string(got) != "third pdu arrives intact too" {
		t.Errorf("post-error PDU = %q", got)
	}
}

func TestSegmentReassembleProperty(t *testing.T) {
	f := func(pdu []byte) bool {
		if len(pdu) > MaxPDUSize {
			pdu = pdu[:MaxPDUSize]
		}
		cells, err := Segment(VC{VCI: 7}, 0, 0, pdu)
		if err != nil {
			return false
		}
		var r Reassembler
		for i, c := range cells {
			p, ok := r.Push(c)
			if ok != (i == len(cells)-1) {
				return false
			}
			if ok && !bytes.Equal(p, pdu) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cellsForPDU is the AAL5 cell count for a PDU of n bytes: payload and
// the 8-byte trailer, padded to whole 48-byte cell payloads.
func cellsForPDU(n int) int { return (n + trailerSize + CellPayloadSize - 1) / CellPayloadSize }

func TestCellsForPDU(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 40: 1, 41: 2, 88: 2, 89: 3}
	for n, want := range cases {
		cells, err := Segment(VC{VCI: 1}, 1, 0, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != want || cellsForPDU(n) != want {
			t.Errorf("a %d-byte PDU took %d cells (cellsForPDU %d), want %d", n, len(cells), cellsForPDU(n), want)
		}
	}
}
