package media

import (
	"encoding/binary"
	"math"
	"time"
)

// WAV defaults matching the thesis's storage figures (§5.2.2): "about
// 1 second of sound in 11KB of disk space, or one minute of sound in
// 1MB" — 11.025 kHz, 8-bit... the per-minute figure implies ≈17 KB/s,
// i.e. 16-bit mono at 8.82 kHz or 8-bit at 17 kHz. We keep the thesis's
// 11 kHz sample rate with 50% container/index overhead so one minute
// lands close to 1 MB as Table 5.1 reports (the two thesis figures are
// mutually inconsistent; we match the per-minute one).
const (
	DefaultWAVRate     = 11025 // Hz
	wavBytesPerSample  = 1
	wavOverheadPercent = 50 // container + index overhead to hit ~1MB/min
)

// EncodeWAV synthesizes a waveform-audio object of the given duration.
// The payload is a deterministic 440 Hz tone; its size tracks the real
// format: sampleRate × bytes/sample × channels × seconds. The tone is
// one exact cycle of wavTone, repeated: a cycle is
// sampleRate/gcd(440, sampleRate) bytes (2205 at 11025 Hz).
func EncodeWAV(d time.Duration, sampleRate, channels int) []byte {
	if sampleRate <= 0 {
		sampleRate = DefaultWAVRate
	}
	if channels <= 0 {
		channels = 1
	}
	samples := int(float64(sampleRate) * d.Seconds())
	n := samples * wavBytesPerSample * channels
	n += n * wavOverheadPercent / 100
	m := Meta{Duration: d, SampleRate: sampleRate, Channels: channels,
		BitRate: sampleRate * wavBytesPerSample * 8 * channels}
	buf := encodeHeader(CodingWAV, m, n)
	cycle := sampleRate / gcd(wavToneHz, sampleRate)
	for i := 0; i < min(n, cycle); i++ {
		buf = append(buf, wavTone(i, sampleRate))
	}
	return appendRepeat(buf, headerSize, headerSize+n)
}

// wavToneHz is the frequency of EncodeWAV's tone.
const wavToneHz = 440

// wavTone is byte i of EncodeWAV's tone: a cheap periodic waveform
// whose content is never inspected.
func wavTone(i, sampleRate int) byte {
	return byte(128 + 100*math.Sin(float64(i)*2*math.Pi*wavToneHz/float64(sampleRate)))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// MIDI cost per minute (§5.2.2): "about 5KB of disk space ... about
// one-twentieth space that of the WAV file".
const midiBytesPerMinute = 5 * 1024

// midiEvent is one note event: delta-time (ms, uint16), status, note,
// velocity — 5 bytes.
const midiEventSize = 5

// EncodeMIDI synthesizes a MIDI object of the given duration with the
// thesis's storage density (≈5 KB per minute of music).
func EncodeMIDI(d time.Duration) []byte {
	events := int(d.Minutes() * midiBytesPerMinute / midiEventSize)
	if events < 1 && d > 0 {
		events = 1
	}
	m := Meta{Duration: d, BitRate: midiBytesPerMinute * 8 / 60}
	buf := encodeHeader(CodingMIDI, m, events*midiEventSize)
	var ev [midiEventSize]byte
	for i := 0; i < events; i++ {
		binary.BigEndian.PutUint16(ev[:], uint16(60000/max(events, 1)))
		ev[2] = 0x90                 // note on, channel 0
		ev[3] = byte(60 + (i*7)%24)  // walk a scale deterministically
		ev[4] = byte(64 + (i*13)%63) // velocity
		buf = append(buf, ev[:]...)
	}
	return buf
}
