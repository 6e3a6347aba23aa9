package atm

import (
	"fmt"
	"hash/crc32"
)

// MaxPDUSize is the largest AAL5 CPCS-PDU payload (the standard limit).
const MaxPDUSize = 65535

const trailerSize = 8

// Segment splits a PDU into ATM cells per AAL5: the payload is padded so
// that payload+8-byte trailer fills a whole number of 48-byte cells, and
// the final cell carries the trailer and the end-of-PDU PTI mark.
func Segment(vc VC, connID int, seqStart int64, pdu []byte) ([]Cell, error) {
	if len(pdu) > MaxPDUSize {
		return nil, fmt.Errorf("atm: PDU of %d bytes exceeds AAL5 limit %d", len(pdu), MaxPDUSize)
	}
	total := len(pdu) + trailerSize
	ncells := (total + CellPayloadSize - 1) / CellPayloadSize
	if ncells == 0 {
		ncells = 1
	}
	buf := make([]byte, ncells*CellPayloadSize)
	copy(buf, pdu)
	tr := aal5Trailer{
		Length: uint16(len(pdu)),
		CRC:    crc32.ChecksumIEEE(buf[:len(buf)-trailerSize]),
	}
	// The CRC in real AAL5 covers payload+pad+first 4 trailer bytes; the
	// simulator checksums payload+pad, which detects the same corruption
	// classes the experiments inject.
	tr.marshal((*[trailerSize]byte)(buf[len(buf)-trailerSize:]))

	cells := make([]Cell, ncells)
	for i := range cells {
		c := &cells[i]
		c.VC = vc
		c.ConnID = connID
		c.Seq = seqStart + int64(i)
		copy(c.Payload[:], buf[i*CellPayloadSize:])
		if i == ncells-1 {
			c.PTI = PTIUserDataEnd
		}
	}
	return cells, nil
}

// Reassembler rebuilds AAL5 PDUs from an in-order cell stream of a single
// virtual connection. Cell loss is detected by the CRC/length check when
// the end-of-PDU cell arrives.
type Reassembler struct {
	buf []byte
}

// Push adds the next cell. When the cell completes a PDU, Push returns
// the reassembled payload and true; corrupted or truncated PDUs are
// dropped and return (nil, false).
func (r *Reassembler) Push(c Cell) ([]byte, bool) {
	r.buf = append(r.buf, c.Payload[:]...)
	if !c.EndOfPDU() {
		return nil, false
	}
	defer func() { r.buf = r.buf[:0] }()
	if len(r.buf) < trailerSize {
		return nil, false
	}
	tr := unmarshalTrailer((*[trailerSize]byte)(r.buf[len(r.buf)-trailerSize:]))
	if int(tr.Length) > len(r.buf)-trailerSize {
		return nil, false
	}
	if crc32.ChecksumIEEE(r.buf[:len(r.buf)-trailerSize]) != tr.CRC {
		return nil, false
	}
	pdu := make([]byte, tr.Length)
	copy(pdu, r.buf)
	return pdu, true
}
