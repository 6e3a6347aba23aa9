// Package atm is a discrete-event simulator of an ATM (Asynchronous
// Transfer Mode) network, the broadband substrate the MITS paper runs on
// (OCRInet, an R&D ATM network in the Ottawa region).
//
// The simulator models the pieces of ATM that the paper's claims depend
// on: fixed 53-byte cells, AAL5 segmentation and reassembly, virtual
// channel switching, per-service-category output queueing with strict
// priority, GCRA (leaky bucket) traffic policing and shaping, and
// connection admission control. It runs entirely on virtual time
// (internal/sim), so experiments are deterministic and fast.
package atm

import (
	"encoding/binary"
	"fmt"
)

// ATM constants fixed by the standard.
const (
	CellSize        = 53 // bytes on the wire
	CellHeaderSize  = 5
	CellPayloadSize = 48
	CellBits        = CellSize * 8
)

// PTI (payload type indicator) values used by AAL5.
const (
	// PTIUserData0 marks a user-data cell that does not end an AAL5 PDU.
	PTIUserData0 = 0
	// PTIUserDataEnd marks the final cell of an AAL5 PDU (AUU bit set).
	PTIUserDataEnd = 1
)

// VC identifies a virtual connection on one link hop. ATM splits this
// into an 8/12-bit VPI and a 16-bit VCI; the simulator keeps both fields
// so headers encode faithfully.
type VC struct {
	VPI uint16 // virtual path identifier (12 bits significant)
	VCI uint16 // virtual channel identifier
}

func (v VC) String() string { return fmt.Sprintf("%d/%d", v.VPI, v.VCI) }

// Cell is one 53-byte ATM cell. Cells are passed by value through the
// simulator; the payload array keeps them allocation-free on the fast
// path.
type Cell struct {
	VC      VC
	PTI     uint8 // payload type indicator (3 bits)
	CLP     uint8 // cell loss priority: 0 = high priority, 1 = droppable
	Payload [CellPayloadSize]byte

	// ConnID tags the cell with its end-to-end connection for metrics
	// and reassembly demultiplexing. It is simulator bookkeeping, not
	// part of the wire format.
	ConnID int
	// Seq is the cell's sequence number within its connection, used by
	// jitter measurements.
	Seq int64
	// PDU is the id of the AAL5 PDU this cell belongs to, so delivery
	// latency can be attributed even under loss. Simulator bookkeeping.
	PDU int64
}

// EndOfPDU reports whether this cell terminates an AAL5 PDU.
func (c *Cell) EndOfPDU() bool { return c.PTI&PTIUserDataEnd != 0 }

// aal5Trailer is the 8-byte AAL5 CPCS trailer: UU, CPI, 16-bit length,
// 32-bit CRC. It occupies the last 8 bytes of the final cell.
type aal5Trailer struct {
	UU     uint8
	CPI    uint8
	Length uint16
	CRC    uint32
}

// marshal and unmarshalTrailer take array pointers, not slices: the
// conversion at the call site is the bounds check, so a trailer can
// never be read from or written into a short buffer.
func (t aal5Trailer) marshal(dst *[trailerSize]byte) {
	dst[0] = t.UU
	dst[1] = t.CPI
	binary.BigEndian.PutUint16(dst[2:], t.Length)
	binary.BigEndian.PutUint32(dst[4:], t.CRC)
}

func unmarshalTrailer(src *[trailerSize]byte) aal5Trailer {
	return aal5Trailer{
		UU:     src[0],
		CPI:    src[1],
		Length: binary.BigEndian.Uint16(src[2:]),
		CRC:    binary.BigEndian.Uint32(src[4:]),
	}
}
