package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"mits/internal/mediastore"
	"mits/internal/obs"
)

// Content on the way down — the "Media Objects in Time" shape: bounded,
// time-ordered fragments delivered ahead of the consumer instead of one
// monolithic ≤16 MB frame. Each chunk is an ordinary keyed
// request/response, so the cluster router forwards chunks verbatim like
// any other keyed read and the breaker/retry stack sees idempotent
// single-chunk calls. Over a multiplexed connection the client reads
// ahead on one pool stripe (streamContent), so the round trip leaves the
// stream's critical path while a small interactive call waits behind at
// most the window's worth of video. db.GetContent answers in the same
// layout: the whole object as chunk 0, which is also the last.
//
// The codec is a fixed layout of its own, not the typed-RPC one: it
// decodes with zero reflection and zero allocation beyond the strings,
// and Data is a view of the frame where the typed decoder would copy
// it (E36).

// MethodGetContentStream is the chunked content wire op. It is keyed
// by ref (RequestKey) and idempotent per chunk.
const MethodGetContentStream = "db.GetContentStream"

// DefaultStreamChunkBytes is the chunk size clients request when the
// caller does not choose: large enough to amortize per-RPC overhead,
// small enough that a media object shares the connection fairly with
// interactive calls. 64 KB matches the batch writer's scratch class
// and, measured on the E32 reference host, keeps the p99 of 1 KB
// neighbours within 2x idle while an 8 MB object streams; at 256 KB a
// chunk occupied the wire for ~2 interactive round trips and the tail
// blew past that bound.
const DefaultStreamChunkBytes = 64 << 10

// MaxStreamChunkBytes caps what a client may request per chunk, so a
// greedy reader cannot turn the stream back into the monolithic frame
// this op exists to avoid.
const MaxStreamChunkBytes = 1 << 20

// streamReadAhead is how many chunk requests a stream keeps in flight
// beyond the chunk its sink is consuming. Measured (EXPERIMENTS E33):
// one only overlaps the sink's own work, two take the round trip off
// the critical path, three cost the interactive neighbour its latency.
const streamReadAhead = 2

// ErrBadChunk marks a GetContentStream payload that failed to decode
// or a chunk sequence that broke its invariants (wrong offset,
// out-of-order index, short non-terminal chunk, total drifting
// mid-stream).
var ErrBadChunk = errors.New("transport: malformed content chunk")

// Chunks delivered to streams, and how long each stream sat blocked
// for its next one: a round trip with no read-ahead, else next to nothing.
var (
	obsStreamChunks    = obs.GetCounter("transport_stream_chunks_total")
	obsStreamChunkWait = obs.GetHistogram("transport_stream_chunk_wait_ns")
)

// streamReqVersion / chunkVersion pin the binary layouts; a decoder
// seeing any other value rejects rather than misparsing.
const (
	streamReqVersion = 1
	chunkVersion     = 1
)

// chunk flag bits.
const (
	chunkFlagLast     = 1 << 0 // terminal chunk: offset+len(data) == total
	chunkFlagKeywords = 1 << 1 // keyword list present (terminal chunks)
)

// EncodeGetContentStream encodes one chunk request:
//
//	u8 version | u16 len(ref) ref | u64 offset | u32 maxBytes
func EncodeGetContentStream(ref string, offset uint64, maxBytes uint32) ([]byte, error) {
	if len(ref) > 0xFFFF {
		return nil, fmt.Errorf("%w: ref of %d bytes", ErrBadChunk, len(ref))
	}
	buf := make([]byte, 0, 1+2+len(ref)+8+4)
	buf = append(buf, streamReqVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ref)))
	buf = append(buf, ref...)
	buf = binary.BigEndian.AppendUint64(buf, offset)
	buf = binary.BigEndian.AppendUint32(buf, maxBytes)
	return buf, nil
}

// DecodeGetContentStream decodes a chunk request. The ref is a fresh
// string; nothing aliases the payload.
func DecodeGetContentStream(payload []byte) (ref string, offset uint64, maxBytes uint32, err error) {
	if len(payload) < 1+2 {
		return "", 0, 0, fmt.Errorf("%w: bad stream request", ErrBadChunk)
	}
	if payload[0] != streamReqVersion {
		return "", 0, 0, fmt.Errorf("%w: bad stream request", ErrBadChunk)
	}
	n := int(binary.BigEndian.Uint16(payload[1:]))
	rest := payload[3:]
	if len(rest) != n+8+4 {
		return "", 0, 0, fmt.Errorf("%w: bad stream request length", ErrBadChunk)
	}
	ref = string(rest[:n])
	offset = binary.BigEndian.Uint64(rest[n:])
	maxBytes = binary.BigEndian.Uint32(rest[n+8:])
	return ref, offset, maxBytes, nil
}

// ContentChunk is one decoded fragment of a streamed content object.
type ContentChunk struct {
	Ref      string
	Coding   string
	Index    uint32 // sequence number at the stream's chunk size
	Offset   uint64 // byte offset of Data within the object
	Total    uint64 // object size in bytes, constant across the stream
	Last     bool   // Offset+len(Data) == Total
	Keywords []string
	// Data is a view into the response payload, NOT a private copy:
	// with the pooled call API it is valid only until the response is
	// released. Copy (or consume) before releasing.
	Data []byte
}

// AppendContentChunk encodes a chunk onto buf:
//
//	u8 version | u8 flags | u32 index | u64 offset | u64 total |
//	u16 len(ref) ref | u16 len(coding) coding |
//	[u16 nkeywords, (u16 len, bytes)* when flagged] |
//	u32 len(data) data
func AppendContentChunk(buf []byte, c *ContentChunk) ([]byte, error) {
	if len(c.Ref) > 0xFFFF || len(c.Coding) > 0xFFFF || len(c.Keywords) > 0xFFFF {
		return nil, fmt.Errorf("%w: oversized chunk fields", ErrBadChunk)
	}
	flags := byte(0)
	if c.Last {
		flags |= chunkFlagLast
	}
	if len(c.Keywords) > 0 {
		flags |= chunkFlagKeywords
	}
	buf = append(buf, chunkVersion, flags)
	buf = binary.BigEndian.AppendUint32(buf, c.Index)
	buf = binary.BigEndian.AppendUint64(buf, c.Offset)
	buf = binary.BigEndian.AppendUint64(buf, c.Total)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Ref)))
	buf = append(buf, c.Ref...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Coding)))
	buf = append(buf, c.Coding...)
	if flags&chunkFlagKeywords != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Keywords)))
		for _, kw := range c.Keywords {
			if len(kw) > 0xFFFF {
				return nil, fmt.Errorf("%w: oversized keyword", ErrBadChunk)
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(kw)))
			buf = append(buf, kw...)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Data)))
	buf = append(buf, c.Data...)
	return buf, nil
}

// DecodeContentChunk decodes a chunk payload. Every length is bounds-
// checked against the remaining bytes (the fuzz corpus covers the
// truncation grid); Data aliases payload — see ContentChunk.Data.
func DecodeContentChunk(payload []byte) (*ContentChunk, error) {
	const fixed = 2 + 4 + 8 + 8
	if len(payload) < fixed {
		return nil, fmt.Errorf("%w: bad chunk header", ErrBadChunk)
	}
	if payload[0] != chunkVersion {
		return nil, fmt.Errorf("%w: bad chunk header", ErrBadChunk)
	}
	flags := payload[1]
	c := &ContentChunk{
		Index:  binary.BigEndian.Uint32(payload[2:]),
		Offset: binary.BigEndian.Uint64(payload[6:]),
		Total:  binary.BigEndian.Uint64(payload[14:]),
		Last:   flags&chunkFlagLast != 0,
	}
	rest := payload[fixed:]
	takeString := func() (string, bool) {
		if len(rest) < 2 {
			return "", false
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return "", false
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, true
	}
	var ok bool
	if c.Ref, ok = takeString(); !ok {
		return nil, fmt.Errorf("%w: truncated ref", ErrBadChunk)
	}
	if c.Coding, ok = takeString(); !ok {
		return nil, fmt.Errorf("%w: truncated coding", ErrBadChunk)
	}
	if flags&chunkFlagKeywords != 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("%w: truncated keyword count", ErrBadChunk)
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if n > len(rest)/2 { // each needs its u16 length: n is the peer's word, and sizes the make
			return nil, fmt.Errorf("%w: truncated keyword", ErrBadChunk)
		}
		c.Keywords = make([]string, 0, n)
		for i := 0; i < n; i++ {
			kw, ok := takeString()
			if !ok {
				return nil, fmt.Errorf("%w: truncated keyword", ErrBadChunk)
			}
			c.Keywords = append(c.Keywords, kw)
		}
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated data length", ErrBadChunk)
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if n != len(rest) {
		return nil, fmt.Errorf("%w: data length %d with %d bytes left", ErrBadChunk, n, len(rest))
	}
	if n > 0 {
		c.Data = rest
	}
	if c.Offset+uint64(n) > c.Total {
		return nil, fmt.Errorf("%w: chunk ends at %d beyond total %d", ErrBadChunk, c.Offset+uint64(n), c.Total)
	}
	if c.Last != (c.Offset+uint64(n) == c.Total) {
		return nil, fmt.Errorf("%w: last flag inconsistent with offsets", ErrBadChunk)
	}
	return c, nil
}

// wholeObject is the maxBytes that asks for all of an object: a chunk's u32 data length.
const wholeObject = math.MaxUint32

// registerContent mounts the two content reads on the mux. They differ
// only in how a request says (ref, offset, maxBytes) — db.GetContent's
// {Ref} means all of it, from 0 — and answer alike: one chunk,
// served straight off the store's borrowed (zero-copy) record.
func registerContent(m *Mux, store *mediastore.Store) {
	serve := func(sc obs.SpanContext, span, ref string, offset, maxBytes uint64, err error) ([]byte, func(), error) {
		if err != nil {
			return nil, nil, err // the request did not decode
		}
		sp := obs.SpanFromContext(span, "internal", sc)
		rec, err := store.GetContentBorrow(ref)
		sp.End(err)
		if err != nil {
			return nil, nil, err
		}
		return encodeContent(rec, offset, maxBytes)
	}
	m.RegisterPooled(MethodGetContent, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, func(), error) {
		var req getContentReq
		err := decodePayload(payload, &req)
		return serve(sc, "store.GetContent", req.Ref, 0, wholeObject, err)
	})
	m.RegisterPooled(MethodGetContentStream, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, func(), error) {
		ref, offset, maxBytes, err := DecodeGetContentStream(payload)
		if maxBytes == 0 {
			maxBytes = DefaultStreamChunkBytes
		}
		return serve(sc, "store.GetContentStream", ref, offset, uint64(min(maxBytes, MaxStreamChunkBytes)), err)
	})
}

// encodeContent encodes bytes [offset, offset+maxBytes) of rec as one
// chunk. The only copy between the record's bytes and the wire batch is
// this encode, into a pooled buffer the server's writer recycles once
// the bytes are on the batch.
func encodeContent(rec *mediastore.ContentRecord, offset, maxBytes uint64) ([]byte, func(), error) {
	data := rec.Data
	if offset > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: offset %d beyond content %q of %d bytes", ErrBadChunk, offset, rec.Ref, len(data))
	}
	end := offset + maxBytes
	if end > uint64(len(data)) {
		end = uint64(len(data))
	}
	chunk := ContentChunk{
		Ref:    rec.Ref,
		Coding: rec.Coding,
		Index:  uint32(offset / maxBytes),
		Offset: offset,
		Total:  uint64(len(data)),
		Last:   end == uint64(len(data)),
		Data:   data[offset:end],
	}
	if chunk.Last {
		chunk.Keywords = rec.Keywords
	}
	buf := getBuf(chunkWireOverhead(&chunk) + len(chunk.Data))
	out, err := AppendContentChunk(buf, &chunk)
	if err != nil {
		putBuf(buf)
		return nil, nil, err
	}
	return out, func() { putBuf(out) }, nil
}

// chunkWireOverhead sizes a chunk's encoding minus its data, so the
// encode buffer is allocated exactly once.
func chunkWireOverhead(c *ContentChunk) int {
	n := 2 + 4 + 8 + 8 + 2 + len(c.Ref) + 2 + len(c.Coding) + 4
	if len(c.Keywords) > 0 {
		n += 2
		for _, kw := range c.Keywords {
			n += 2 + len(kw)
		}
	}
	return n
}

// GetContentStream fetches a content object as a sequence of bounded
// chunks, each an independent idempotent RPC that interleaves fairly
// with other calls on the connection. sink, when non-nil, receives
// each chunk's bytes in order as they arrive — the view is valid only
// during the callback (it may be backed by a pooled buffer).
//
// Retention: with a content cache attached, the object is assembled
// and admitted whole (assemble-then-admit: the cache never holds a
// partial object) and the shared record is returned — like GetContent,
// it must not be mutated. Without a cache, a nil sink assembles and
// returns a private record, while a non-nil sink streams WITHOUT
// retaining: the returned record carries ref, coding and keywords but
// nil Data. That keeps a pure consumer (a player draining an 8 MB
// clip) from allocating the whole object per pass — on a saturated
// host that garbage is exactly what shows up as p99 spikes in
// neighbouring interactive calls.
func (d DBClient) GetContentStream(ref string, sink func([]byte) error) (*mediastore.ContentRecord, error) {
	if d.ContentCache == nil {
		return d.streamContent(ref, sink, sink == nil)
	}
	streamed := false
	v, err := d.ContentCache.GetOrFill(ref, func() (any, int64, error) {
		streamed = true
		rec, err := d.streamContent(ref, sink, true)
		if err != nil {
			return nil, 0, err
		}
		return rec, int64(len(rec.Data)), nil
	})
	if err != nil {
		return nil, err
	}
	rec := v.(*mediastore.ContentRecord)
	if !streamed && sink != nil {
		// Cache hit (or a concurrent streamer won the singleflight):
		// replay chunk-sized views of the immutable cached bytes.
		for off := 0; ; off += DefaultStreamChunkBytes {
			end := off + DefaultStreamChunkBytes
			if end > len(rec.Data) {
				end = len(rec.Data)
			}
			if err := sink(rec.Data[off:end]); err != nil {
				return nil, err
			}
			if end == len(rec.Data) {
				break
			}
		}
	}
	return rec, nil
}

// streamContent is the chunk loop. retain assembles the object into
// rec.Data; otherwise the chunks only pass through sink and rec comes
// back metadata-only.
//
// A stream holds one pool stripe from first chunk to last, so its
// chunks arrive in order on one connection and the other stripes stay
// clear for interactive calls. Chunk 0 is fetched alone (it carries
// Total); from then on, over a connection that can start a call
// without waiting for it, up to streamReadAhead further requests are
// in flight while the sink consumes, and each is settled before the
// stream returns — waited and released, or cancelled. Any other carrier
// (retry, breaker, loopback) runs the same loop with nothing ahead:
// one call per chunk, in sequence.
func (d DBClient) streamContent(ref string, sink func([]byte) error, retain bool) (*mediastore.ContentRecord, error) {
	c := d.C
	conn, _ := c.(*TCPClient)
	if p, ok := c.(*ClientPool); ok {
		conn = p.pick()
		conn.streams.Add(1)
		defer conn.streams.Add(-1)
		c = conn
	}
	var ahead [streamReadAhead]*pendingCall // chunk i's started call sits in slot i%len
	next, started := uint32(0), uint32(0)   // chunks settled, chunks requested
	defer func() {
		for ; next < started; next++ {
			ahead[next%streamReadAhead].cancel()
		}
	}()
	rec := &mediastore.ContentRecord{Ref: ref}
	var buf []byte
	var total uint64
	for {
		idx := next
		blocked := time.Now()
		var payload []byte
		var rel func()
		var err error
		if idx < started {
			var resp *frame
			payload, resp, err = ahead[idx%streamReadAhead].wait()
			rel = poolRelease(resp)
		} else {
			var req []byte
			if req, err = chunkRequest(ref, idx); err == nil {
				payload, rel, err = c.CallInTracePooled(d.Trace, MethodGetContentStream, req)
			}
			started++
		}
		next++
		obsStreamChunkWait.Observe(time.Since(blocked))
		if err != nil {
			return nil, err
		}
		if rel == nil {
			rel = func() {} // unpooled carrier: the payload is the GC's
		}
		ck, err := DecodeContentChunk(payload)
		if err == nil {
			err = checkChunk(ck, ref, idx, total)
		}
		// Top the window up before consuming: the chunk is in sequence,
		// so its Total says how many more there are to ask for.
		for err == nil && conn != nil && started <= idx+streamReadAhead && uint64(started)*DefaultStreamChunkBytes < ck.Total {
			var req []byte
			if req, err = chunkRequest(ref, started); err == nil {
				ahead[started%streamReadAhead] = conn.start(d.Trace, MethodGetContentStream, req)
				started++
			}
		}
		if err != nil {
			rel()
			return nil, fmt.Errorf("content stream %q: %w", ref, err)
		}
		obsStreamChunks.Inc()
		if idx == 0 {
			total = ck.Total
			if retain {
				// Total is the peer's word: reserve no more than one
				// frame's worth on it and let append grow the rest with
				// bytes that actually arrive.
				buf = make([]byte, 0, min(ck.Total, MaxFrame))
			}
		}
		if retain {
			buf = append(buf, ck.Data...)
		}
		if sink != nil {
			if err := sink(ck.Data); err != nil {
				rel()
				return nil, err
			}
		}
		rec.Coding = ck.Coding
		if ck.Keywords != nil {
			rec.Keywords = ck.Keywords
		}
		last := ck.Last
		// The chunk (and its Data view of the response) is consumed:
		// recycle the response buffer before waiting for the next.
		rel()
		if last {
			break
		}
	}
	rec.Data = buf
	return rec, nil
}

// chunkRequest encodes the request for chunk idx of a stream.
func chunkRequest(ref string, idx uint32) ([]byte, error) {
	return EncodeGetContentStream(ref, uint64(idx)*DefaultStreamChunkBytes, DefaultStreamChunkBytes)
}

// checkChunk enforces the stream invariants on received chunk idx:
// right object, sequential offset and index, exactly the requested
// bytes unless it is the last (read-ahead offsets assume it, and an
// empty non-terminal chunk would never advance the stream), stable
// total. total is 0 before the first chunk (unknown).
func checkChunk(ck *ContentChunk, ref string, idx uint32, total uint64) error {
	if ck.Ref != ref {
		return fmt.Errorf("%w: chunk for %q", ErrBadChunk, ck.Ref)
	}
	if off := uint64(idx) * DefaultStreamChunkBytes; ck.Offset != off {
		return fmt.Errorf("%w: chunk at offset %d, want %d", ErrBadChunk, ck.Offset, off)
	}
	if ck.Index != idx {
		return fmt.Errorf("%w: chunk index %d, want %d", ErrBadChunk, ck.Index, idx)
	}
	if !ck.Last && len(ck.Data) != DefaultStreamChunkBytes {
		return fmt.Errorf("%w: non-terminal chunk of %d bytes, want %d", ErrBadChunk, len(ck.Data), DefaultStreamChunkBytes)
	}
	if idx > 0 && ck.Total != total {
		return fmt.Errorf("%w: total changed mid-stream (%d -> %d; content republished?)", ErrBadChunk, total, ck.Total)
	}
	return nil
}
