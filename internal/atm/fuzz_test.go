// The ATM model is a single-goroutine simulation on sim.Clock: neither
// this package nor its tests start a goroutine, so the race detector
// has nothing to observe here, yet it makes the package's tests about
// ten times slower. They run in the plain `go test ./...` pass only.

//go:build !race

package atm

import (
	"bytes"
	"testing"
)

// FuzzAAL5Reassemble drives the reassembler two ways with the same
// input: as a hostile cell stream (arbitrary payloads, end-of-PDU on
// the last cell), which must never panic and only ever increment the
// error counter; and as a PDU through the real Segment path, which must
// reassemble to the original bytes.
func FuzzAAL5Reassemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello, broadband telelearning"))
	f.Add(bytes.Repeat([]byte{0xA5}, 3*CellPayloadSize))
	big := make([]byte, 200)
	for i := range big {
		big[i] = byte(i)
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		var hostile Reassembler
		for off := 0; off < len(data); off += CellPayloadSize {
			var c Cell
			n := copy(c.Payload[:], data[off:])
			if off+n >= len(data) {
				c.PTI = PTIUserDataEnd
			}
			hostile.Push(c)
		}

		pdu := data
		if len(pdu) > MaxPDUSize {
			pdu = pdu[:MaxPDUSize]
		}
		cells, err := Segment(VC{VPI: 1, VCI: 42}, 1, 0, pdu)
		if err != nil {
			t.Fatalf("Segment: %v", err)
		}
		var r Reassembler
		pdus, rejected := pushAll(&r, cells)
		if rejected != 0 {
			t.Fatalf("clean stream had %d end cells refused", rejected)
		}
		if len(pdus) != 1 {
			t.Fatalf("segmented PDU reassembled %d times, want once", len(pdus))
		}
		if !bytes.Equal(pdus[0], pdu) {
			t.Fatalf("round trip changed PDU: %d bytes in, %d out", len(pdu), len(pdus[0]))
		}
	})
}
