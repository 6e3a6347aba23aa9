package collect

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The obs.Export payload is a hand-rolled binary format rather than
// gob: both ends live in this repo, batches flow continuously on every
// node, and gob pays a per-message type-descriptor compile on each
// decode (a new Decoder per RPC payload) that showed up as the
// dominant export cost under profile — on a small host that CPU comes
// straight out of delivery throughput. Layout, all little-endian:
//
//	u8  version (wireV1)
//	str site                 (uvarint length + bytes)
//	uv  span count
//	per span: u64 trace, u64 id, u64 parent, i64 startNS (zig-zag),
//	          i64 durNS (zig-zag), str name, str kind, str site, str err
const wireV1 = 1

// maxWireSpans bounds the decoded span count so a corrupt length
// prefix cannot balloon an allocation; exporters batch far below it.
const maxWireSpans = 1 << 20

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBatch encodes b onto buf and returns the extended slice — the
// reuse form the exporter ships with, so a steady span stream does not
// churn a fresh encode buffer per chunk.
func appendBatch(buf []byte, b Batch) []byte {
	buf = append(buf, wireV1)
	buf = appendString(buf, b.Site)
	buf = binary.AppendUvarint(buf, uint64(len(b.Spans)))
	for i := range b.Spans {
		s := &b.Spans[i]
		buf = binary.LittleEndian.AppendUint64(buf, s.Trace)
		buf = binary.LittleEndian.AppendUint64(buf, s.ID)
		buf = binary.LittleEndian.AppendUint64(buf, s.Parent)
		buf = binary.AppendVarint(buf, s.StartNS)
		buf = binary.AppendVarint(buf, s.DurNS)
		buf = appendString(buf, s.Name)
		buf = appendString(buf, s.Kind)
		buf = appendString(buf, s.Site)
		buf = appendString(buf, s.Err)
	}
	return buf
}

// wireReader cursors through a batch payload; the first malformed
// field latches err and every later read returns zero values, so
// decode loops need no per-field branches.
type wireReader struct {
	data []byte
	err  error
	// intern dedupes decoded strings within one payload: a batch
	// carries the same handful of Name/Kind/Site values over and over,
	// and giving every span its own copy is pure GC scan weight on the
	// collector's pending heap.
	intern map[string]string
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("collect: truncated batch payload")
	}
	r.data = nil
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.data)
	if r.err != nil || n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:] //mits:allow boundscheck Varint consumed n <= len(r.data) bytes
	return v
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if r.err != nil || n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:] //mits:allow boundscheck Uvarint consumed n <= len(r.data) bytes
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > math.MaxInt32 || uint64(len(r.data)) < n {
		r.fail()
		return ""
	}
	raw := r.data[:n]
	r.data = r.data[n:]
	if n == 0 {
		return ""
	}
	// The map[string] lookup with a string([]byte) key does not
	// allocate (compiler-recognized idiom); only first-seen values pay
	// the copy.
	if s, ok := r.intern[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if r.intern == nil {
		r.intern = make(map[string]string, 8)
	}
	r.intern[s] = s
	return s
}

func decodeBatch(data []byte) (Batch, error) {
	var b Batch
	if len(data) < 1 {
		return b, fmt.Errorf("collect: empty batch payload")
	}
	if data[0] != wireV1 {
		return b, fmt.Errorf("collect: unknown batch wire version %d", data[0])
	}
	r := &wireReader{data: data[1:]}
	b.Site = r.str()
	n := r.uvarint()
	if r.err != nil {
		return Batch{}, r.err
	}
	if n > maxWireSpans {
		return Batch{}, fmt.Errorf("collect: batch claims %d spans (max %d)", n, maxWireSpans)
	}
	b.Spans = make([]SpanRecord, n)
	for i := range b.Spans {
		s := &b.Spans[i]
		s.Trace = r.u64()
		s.ID = r.u64()
		s.Parent = r.u64()
		s.StartNS = r.varint()
		s.DurNS = r.varint()
		s.Name = r.str()
		s.Kind = r.str()
		s.Site = r.str()
		s.Err = r.str()
	}
	if r.err != nil {
		return Batch{}, r.err
	}
	return b, nil
}
