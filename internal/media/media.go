// Package media implements the mono-media objects of the MITS media
// production center (§3.4.1) and the file formats of the navigator
// platform (§5.2.2, Table 5.1).
//
// Real codecs are replaced by synthetic ones that generate deterministic
// bitstreams with the correct *statistical shape*: WAV costs about 1 MB
// per minute and MIDI about 5 KB per minute (Table 5.1), MPEG video has
// a GOP structure of large I-frames and smaller P/B-frames paced at the
// stream's frame rate, and AVI interleaves audio and video chunks. The
// experiments depend on sizes, rates and timing, never on pixel or
// sample content, so this substitution preserves the paper's behaviour.
package media

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Coding identifies a media encoding, as carried in MHEG content-object
// parameter sets ("identification of the coding method", §2.2.2.1).
type Coding string

// Codings used across MITS.
const (
	CodingMPEG  Coding = "MPEG"  // motion video
	CodingJPEG  Coding = "JPEG"  // still image
	CodingWAV   Coding = "WAV"   // waveform audio
	CodingMIDI  Coding = "MIDI"  // musical instrument digital interface
	CodingAVI   Coding = "AVI"   // audio-video interleaved
	CodingASCII Coding = "ASCII" // plain text
	CodingHTML  Coding = "HTML"  // hypertext markup
)

// Class is the broad media class of an object.
type Class int

// Media classes.
const (
	ClassText Class = iota
	ClassImage
	ClassAudio
	ClassVideo
)

var classNames = [...]string{"text", "image", "audio", "video"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ClassOf reports the media class of a coding.
func ClassOf(c Coding) Class {
	switch c {
	case CodingMPEG, CodingAVI:
		return ClassVideo
	case CodingWAV, CodingMIDI:
		return ClassAudio
	case CodingJPEG:
		return ClassImage
	default:
		return ClassText
	}
}

// TimeBased reports whether the coding has a duration (continuous media).
func TimeBased(c Coding) bool {
	switch c {
	case CodingMPEG, CodingAVI, CodingWAV, CodingMIDI:
		return true
	}
	return false
}

// Meta carries presentation parameters of a media object — the MHEG
// content class "parameter set specifying characteristics for content
// presentation" (§2.2.2.1).
type Meta struct {
	Duration   time.Duration // for time-based media
	Width      int           // pixels, visual media
	Height     int           // pixels, visual media
	SampleRate int           // Hz, audio
	Channels   int           // audio channels
	FrameRate  int           // frames/s, video
	BitRate    int           // bits/s, continuous media streams
}

// Object is one mono-media object produced by the media production
// center and referenced from MHEG content objects.
type Object struct {
	ID       string
	Name     string
	Coding   Coding
	Meta     Meta
	Keywords []string
	Data     []byte
}

// Synthetic container format shared by all simulated codecs: a 4-byte
// magic, a fixed binary header, then payload. Real formats differ, but
// every consumer in this system goes through Encode/Decode, so only
// self-consistency matters.
const headerSize = 40

var magics = map[Coding][4]byte{
	CodingMPEG:  {'S', 'M', 'P', 'G'},
	CodingJPEG:  {'S', 'J', 'P', 'G'},
	CodingWAV:   {'S', 'W', 'A', 'V'},
	CodingMIDI:  {'S', 'M', 'I', 'D'},
	CodingAVI:   {'S', 'A', 'V', 'I'},
	CodingASCII: {'S', 'T', 'X', 'T'},
	CodingHTML:  {'S', 'H', 'T', 'M'},
}

func encodeHeader(c Coding, m Meta, payloadLen int) []byte {
	buf := make([]byte, headerSize, headerSize+payloadLen)
	magic := magics[c]
	copy(buf, magic[:])
	binary.BigEndian.PutUint64(buf[4:], uint64(m.Duration))
	binary.BigEndian.PutUint32(buf[12:], uint32(m.Width))
	binary.BigEndian.PutUint32(buf[16:], uint32(m.Height))
	binary.BigEndian.PutUint32(buf[20:], uint32(m.SampleRate))
	binary.BigEndian.PutUint32(buf[24:], uint32(m.Channels))
	binary.BigEndian.PutUint32(buf[28:], uint32(m.FrameRate))
	binary.BigEndian.PutUint32(buf[32:], uint32(m.BitRate))
	binary.BigEndian.PutUint32(buf[36:], uint32(payloadLen))
	return buf
}

// Decode parses the header of an encoded media object, verifying magic
// and length, and returns the embedded metadata.
func Decode(c Coding, data []byte) (Meta, error) {
	if len(data) < headerSize {
		return Meta{}, fmt.Errorf("%s data truncated: %d bytes", c, len(data))
	}
	magic, ok := magics[c]
	if !ok {
		return Meta{}, fmt.Errorf("unknown coding %q", c)
	}
	if [4]byte(data[:4]) != magic {
		return Meta{}, fmt.Errorf("bad %s magic %q", c, data[:4])
	}
	m := Meta{
		Duration:   time.Duration(binary.BigEndian.Uint64(data[4:])),
		Width:      int(binary.BigEndian.Uint32(data[12:])),
		Height:     int(binary.BigEndian.Uint32(data[16:])),
		SampleRate: int(binary.BigEndian.Uint32(data[20:])),
		Channels:   int(binary.BigEndian.Uint32(data[24:])),
		FrameRate:  int(binary.BigEndian.Uint32(data[28:])),
		BitRate:    int(binary.BigEndian.Uint32(data[32:])),
	}
	plen := int(binary.BigEndian.Uint32(data[36:]))
	if len(data)-headerSize != plen {
		return Meta{}, fmt.Errorf("%s payload length %d != header %d", c, len(data)-headerSize, plen)
	}
	return m, nil
}
