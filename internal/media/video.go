package media

import (
	"encoding/binary"
	"fmt"
	"time"

	"mits/internal/sim"
)

// FrameKind is an MPEG picture type.
type FrameKind byte

// MPEG picture types.
const (
	IFrame FrameKind = 'I' // intra-coded: largest
	PFrame FrameKind = 'P' // predictive: medium
	BFrame FrameKind = 'B' // bidirectional: smallest
)

// Frame describes one encoded video frame: its kind, encoded size and
// presentation timestamp. Streaming experiments pace cell emission from
// this sequence.
type Frame struct {
	Kind FrameKind
	Size int           // encoded bytes
	PTS  time.Duration // presentation timestamp from stream start
}

// GOP (group of pictures) layout used by the synthetic encoder:
// IBBPBBPBBPBB — one I-frame per 12, the classic MPEG-1 pattern.
const gopLength = 12

var gopPattern = [gopLength]FrameKind{
	IFrame, BFrame, BFrame, PFrame, BFrame, BFrame,
	PFrame, BFrame, BFrame, PFrame, BFrame, BFrame,
}

// Relative frame weights: I:P:B ≈ 5:3:1, normalized so a whole GOP
// matches the target bit rate.
var frameWeight = map[FrameKind]float64{IFrame: 5, PFrame: 3, BFrame: 1}

// gopWeight is the summed weight of one GOP (1×I + 3×P + 8×B).
const gopWeight = 5*1 + 3*3 + 1*8

// VideoParams configures the synthetic MPEG encoder.
type VideoParams struct {
	Duration  time.Duration
	Width     int // default 352 (SIF)
	Height    int // default 240
	FrameRate int // default 30
	BitRate   int // bits/s, default 1.5e6 (MPEG-1)
	Seed      uint64
}

func (p *VideoParams) defaults() {
	if p.Width == 0 {
		p.Width = 352
	}
	if p.Height == 0 {
		p.Height = 240
	}
	if p.FrameRate == 0 {
		p.FrameRate = 30
	}
	if p.BitRate == 0 {
		p.BitRate = 1500000
	}
}

// frameRecordSize is the per-frame record in the payload: kind(1) +
// size(4) + filler reference(3) = 8 bytes, followed by the frame body.
const frameRecordSize = 8

// EncodeMPEG synthesizes an MPEG-like elementary stream: a sequence of
// frame records following the GOP pattern, with deterministic ±20% size
// jitter so VBR behaviour is realistic. The bytes are a pure function
// of p.
func EncodeMPEG(p VideoParams) []byte {
	p.defaults()
	m := Meta{Duration: p.Duration, Width: p.Width, Height: p.Height,
		FrameRate: p.FrameRate, BitRate: p.BitRate}
	return encodeJoined(CodingMPEG, m, frameParts(mpegFrameSizes(p), 0))
}

// mpegFrameSizes draws the encoded size of every frame of the stream
// (each at least frameRecordSize).
func mpegFrameSizes(p VideoParams) []int {
	frames := int(float64(p.FrameRate) * p.Duration.Seconds())
	bytesPerGOP := float64(p.BitRate) / 8 * float64(gopLength) / float64(p.FrameRate)
	rng := sim.NewRNG(p.Seed + 1)
	sizes := make([]int, frames)
	for i := range sizes {
		kind := gopPattern[i%gopLength]
		base := bytesPerGOP * frameWeight[kind] / gopWeight
		jitter := 0.8 + 0.4*rng.Float64()
		sz := int(base * jitter)
		if sz < frameRecordSize {
			sz = frameRecordSize
		}
		sizes[i] = sz
	}
	return sizes
}

// frameParts lists the parts a stream of frames of the given sizes is
// joined from, after a first part left for the header: per frame its
// record, then a body of deterministic filler whose byte j (counted
// from the record's start) is byte(i*31+j), then audio bytes of filler
// whose byte j is byte(j). Every filler is a slice of one ramp table.
func frameParts(sizes []int, audio int) [][]byte {
	n := audio
	for _, sz := range sizes {
		n = max(n, 256+sz-frameRecordSize)
	}
	ramp := make([]byte, n)
	for k := range ramp {
		ramp[k] = byte(k)
	}
	records := make([]byte, frameRecordSize*len(sizes))
	parts := make([][]byte, 1, 1+(2+min(audio, 1))*len(sizes))
	for i, sz := range sizes {
		rec := records[i*frameRecordSize : (i+1)*frameRecordSize]
		rec[0] = byte(gopPattern[i%gopLength])
		binary.BigEndian.PutUint32(rec[1:], uint32(sz))
		start := int(byte(i*31 + frameRecordSize))
		parts = append(parts, rec, ramp[start:start+sz-frameRecordSize])
		if audio > 0 {
			parts = append(parts, ramp[:audio])
		}
	}
	return parts
}

// ParseMPEG extracts the frame sequence from an encoded stream, with
// presentation timestamps derived from the frame rate. Streaming
// servers iterate this to pace transmission.
func ParseMPEG(data []byte) ([]Frame, Meta, error) {
	m, err := Decode(CodingMPEG, data)
	if err != nil {
		return nil, Meta{}, err
	}
	if m.FrameRate <= 0 {
		return nil, Meta{}, fmt.Errorf("MPEG stream with frame rate %d", m.FrameRate)
	}
	// Decode validated the header, but carry the guard locally so this
	// function is panic-free on any input.
	if len(data) < headerSize {
		return nil, Meta{}, fmt.Errorf("MPEG stream truncated at %d bytes", len(data))
	}
	payload := data[headerSize:]
	var frames []Frame
	frameDur := time.Second / time.Duration(m.FrameRate)
	for off, idx := 0, 0; off < len(payload); idx++ {
		if off+frameRecordSize > len(payload) {
			return nil, Meta{}, fmt.Errorf("MPEG frame %d truncated at offset %d", idx, off)
		}
		kind := FrameKind(payload[off])
		size := int(binary.BigEndian.Uint32(payload[off+1:]))
		if size < frameRecordSize || off+size > len(payload) {
			return nil, Meta{}, fmt.Errorf("MPEG frame %d has bad size %d", idx, size)
		}
		frames = append(frames, Frame{Kind: kind, Size: size, PTS: time.Duration(idx) * frameDur})
		off += size
	}
	return frames, m, nil
}

// aviAudioShare is the fraction of an AVI stream that is audio.
const aviAudioShare = 0.1

// EncodeAVI synthesizes an audio-video-interleaved object: the MPEG-like
// video stream plus a WAV-like audio track, interleaved per frame. AVI
// is the navigator's native Windows 95 playback format (Table 5.1).
// Each video frame is EncodeMPEG's, followed by audio filler whose byte
// j is byte(j); the bytes are a pure function of p.
func EncodeAVI(p VideoParams) []byte {
	p.defaults()
	audioPerFrame := int(float64(p.BitRate) / 8 * aviAudioShare / float64(p.FrameRate))
	m := Meta{Duration: p.Duration, Width: p.Width, Height: p.Height,
		FrameRate: p.FrameRate, BitRate: int(float64(p.BitRate) * (1 + aviAudioShare)),
		SampleRate: DefaultWAVRate, Channels: 1}
	return encodeJoined(CodingAVI, m, frameParts(mpegFrameSizes(p), audioPerFrame))
}
