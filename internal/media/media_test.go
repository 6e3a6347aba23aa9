package media

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mits/internal/sim"
)

func TestWAVSizeMatchesTable51(t *testing.T) {
	// Table 5.1 / §5.2.2: one minute of waveform audio ≈ 1 MB.
	data := EncodeWAV(time.Minute, 0, 0)
	mb := float64(len(data)) / (1 << 20)
	if mb < 0.8 || mb > 1.2 {
		t.Errorf("1 minute of WAV = %.2f MB, want ≈1 MB", mb)
	}
}

func TestMIDISizeMatchesTable51(t *testing.T) {
	// §5.2.2: one minute of MIDI ≈ 5 KB, about 1/20 of WAV.
	midi := EncodeMIDI(time.Minute)
	kb := float64(len(midi)) / 1024
	if kb < 4 || kb > 6.5 {
		t.Errorf("1 minute of MIDI = %.2f KB, want ≈5 KB", kb)
	}
	// The thesis says MIDI takes "one-twentieth" of WAV, but its own
	// numbers (1 MB/min vs 5 KB/min) imply ≈200×. We match the numbers.
	wav := EncodeWAV(time.Minute, 0, 0)
	ratio := float64(len(wav)) / float64(len(midi))
	if ratio < 100 || ratio > 300 {
		t.Errorf("WAV/MIDI ratio = %.1f, want ≈200", ratio)
	}
}

func TestWAVDecodeRoundTrip(t *testing.T) {
	data := EncodeWAV(5*time.Second, 22050, 2)
	m, err := Decode(CodingWAV, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Duration != 5*time.Second || m.SampleRate != 22050 || m.Channels != 2 {
		t.Errorf("decoded meta %+v", m)
	}
}

func TestMPEGGOPStructure(t *testing.T) {
	data := EncodeMPEG(VideoParams{Duration: 4 * time.Second})
	frames, m, err := ParseMPEG(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.FrameRate != 30 || m.Width != 352 || m.Height != 240 {
		t.Errorf("default meta %+v", m)
	}
	if len(frames) != 120 {
		t.Fatalf("4s@30fps gave %d frames, want 120", len(frames))
	}
	var iSum, pSum, bSum, iN, pN, bN float64
	for i, f := range frames {
		if want := gopPattern[i%gopLength]; f.Kind != want {
			t.Fatalf("frame %d kind %c, want %c", i, f.Kind, want)
		}
		switch f.Kind {
		case IFrame:
			iSum += float64(f.Size)
			iN++
		case PFrame:
			pSum += float64(f.Size)
			pN++
		case BFrame:
			bSum += float64(f.Size)
			bN++
		}
	}
	iAvg, pAvg, bAvg := iSum/iN, pSum/pN, bSum/bN
	if !(iAvg > pAvg && pAvg > bAvg) {
		t.Errorf("frame size ordering I=%.0f P=%.0f B=%.0f, want I>P>B", iAvg, pAvg, bAvg)
	}
	// PTS pacing.
	if want := 30 * (time.Second / 30); frames[30].PTS != want {
		t.Errorf("frame 30 PTS=%v, want %v", frames[30].PTS, want)
	}
}

func TestMPEGBitRateAccuracy(t *testing.T) {
	p := VideoParams{Duration: 10 * time.Second, BitRate: 1500000}
	data := EncodeMPEG(p)
	payloadBits := float64(len(data)-headerSize) * 8
	rate := payloadBits / 10
	if math.Abs(rate-1500000)/1500000 > 0.1 {
		t.Errorf("measured bit rate %.0f, want ≈1.5e6 ±10%%", rate)
	}
}

func TestMPEGDeterministic(t *testing.T) {
	a := EncodeMPEG(VideoParams{Duration: time.Second, Seed: 9})
	b := EncodeMPEG(VideoParams{Duration: time.Second, Seed: 9})
	if len(a) != len(b) {
		t.Fatal("same seed produced different streams")
	}
	c := EncodeMPEG(VideoParams{Duration: time.Second, Seed: 10})
	if len(a) == len(c) {
		// Lengths can collide, compare content.
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical streams")
		}
	}
}

func TestParseMPEGRejectsCorruption(t *testing.T) {
	data := EncodeMPEG(VideoParams{Duration: time.Second})
	if _, _, err := ParseMPEG(data[:len(data)-5]); err == nil {
		t.Error("truncated stream parsed (length check must catch)")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := ParseMPEG(bad); err == nil {
		t.Error("bad magic parsed")
	}
}

func TestAVIInterleaveLargerThanVideo(t *testing.T) {
	p := VideoParams{Duration: 2 * time.Second}
	avi := EncodeAVI(p)
	mpeg := EncodeMPEG(p)
	if len(avi) <= len(mpeg) {
		t.Errorf("AVI %d bytes not larger than bare MPEG %d (audio track missing)", len(avi), len(mpeg))
	}
	m, err := Decode(CodingAVI, avi)
	if err != nil {
		t.Fatal(err)
	}
	if m.SampleRate != DefaultWAVRate {
		t.Errorf("AVI audio meta missing: %+v", m)
	}
}

func TestJPEGScalesWithPixels(t *testing.T) {
	small := EncodeJPEG(320, 240, 1)
	large := EncodeJPEG(640, 480, 1)
	ratio := float64(len(large)) / float64(len(small))
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4× pixels gave %.2f× bytes, want ≈4×", ratio)
	}
}

func TestTextRoundTrip(t *testing.T) {
	msg := "ATM cells are 53 bytes long."
	data := EncodeText(msg)
	got, err := TextContent(CodingASCII, data)
	if err != nil {
		t.Fatal(err)
	}
	if got != msg {
		t.Errorf("round trip %q", got)
	}
	if _, err := TextContent(CodingJPEG, data); err == nil {
		t.Error("TextContent accepted image coding")
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := TextContent(CodingASCII, EncodeText(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassOfAndTimeBased(t *testing.T) {
	if ClassOf(CodingMPEG) != ClassVideo || ClassOf(CodingWAV) != ClassAudio ||
		ClassOf(CodingJPEG) != ClassImage || ClassOf(CodingHTML) != ClassText {
		t.Error("ClassOf misclassifies")
	}
	if !TimeBased(CodingMPEG) || !TimeBased(CodingMIDI) || TimeBased(CodingJPEG) || TimeBased(CodingASCII) {
		t.Error("TimeBased misclassifies")
	}
	if ClassVideo.String() != "video" {
		t.Error("Class.String broken")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(CodingWAV, []byte("short")); err == nil {
		t.Error("short data decoded")
	}
	if _, err := Decode(Coding("NOPE"), make([]byte, 100)); err == nil {
		t.Error("unknown coding decoded")
	}
	data := EncodeText("hello")
	if _, err := Decode(CodingASCII, data[:len(data)-1]); err == nil {
		t.Error("length mismatch not detected")
	}
}

func TestGenerateLecture(t *testing.T) {
	a := GenerateLecture("ATM networks", 2000, 5)
	b := GenerateLecture("ATM networks", 2000, 5)
	if a != b {
		t.Error("lecture generation not deterministic")
	}
	if len(a) < 2000 {
		t.Errorf("lecture only %d bytes, want ≥2000", len(a))
	}
	if !strings.HasPrefix(a, "Lecture notes: ATM networks.") {
		t.Error("lecture missing topic header")
	}
}

// oracleEncodeMPEG is EncodeMPEG as it was written first, one append
// per byte; the block-copy encoder must reproduce it byte for byte.
func oracleEncodeMPEG(p VideoParams) []byte {
	p.defaults()
	frames := int(float64(p.FrameRate) * p.Duration.Seconds())
	bytesPerGOP := float64(p.BitRate) / 8 * float64(gopLength) / float64(p.FrameRate)
	rng := sim.NewRNG(p.Seed + 1)
	m := Meta{Duration: p.Duration, Width: p.Width, Height: p.Height,
		FrameRate: p.FrameRate, BitRate: p.BitRate}
	sizes := make([]int, frames)
	total := 0
	for i := range sizes {
		kind := gopPattern[i%gopLength]
		base := bytesPerGOP * frameWeight[kind] / gopWeight
		jitter := 0.8 + 0.4*rng.Float64()
		sz := int(base * jitter)
		if sz < frameRecordSize {
			sz = frameRecordSize
		}
		sizes[i] = sz
		total += sz
	}
	buf := encodeHeader(CodingMPEG, m, total)
	for i, sz := range sizes {
		var rec [frameRecordSize]byte
		rec[0] = byte(gopPattern[i%gopLength])
		binary.BigEndian.PutUint32(rec[1:], uint32(sz))
		buf = append(buf, rec[:]...)
		for j := frameRecordSize; j < sz; j++ {
			buf = append(buf, byte(i*31+j))
		}
	}
	return buf
}

// oracleEncodeAVI is EncodeAVI as it was written first: it re-parses
// the oracle's MPEG output and appends the audio filler a byte at a time.
func oracleEncodeAVI(p VideoParams) []byte {
	p.defaults()
	video := oracleEncodeMPEG(p)
	audioPerFrame := int(float64(p.BitRate) / 8 * aviAudioShare / float64(p.FrameRate))
	frames, _, err := ParseMPEG(video)
	if err != nil {
		panic(err)
	}
	total := 0
	for _, f := range frames {
		total += f.Size + audioPerFrame
	}
	m := Meta{Duration: p.Duration, Width: p.Width, Height: p.Height,
		FrameRate: p.FrameRate, BitRate: int(float64(p.BitRate) * (1 + aviAudioShare)),
		SampleRate: DefaultWAVRate, Channels: 1}
	buf := encodeHeader(CodingAVI, m, total)
	payload := video[headerSize:]
	off := 0
	for _, f := range frames {
		buf = append(buf, payload[off:off+f.Size]...)
		for j := 0; j < audioPerFrame; j++ {
			buf = append(buf, byte(j))
		}
		off += f.Size
	}
	return buf
}

// oracleEncodeWAV is EncodeWAV as it was written first, one sine per
// byte.
func oracleEncodeWAV(d time.Duration, sampleRate, channels int) []byte {
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
	for i := 0; i < n; i++ {
		buf = append(buf, byte(128+100*math.Sin(float64(i)*2*math.Pi*440/float64(sampleRate))))
	}
	return buf
}

func TestVideoEncodersMatchOracle(t *testing.T) {
	durations := []time.Duration{0, time.Second / 7, 2 * time.Second, 20 * time.Second}
	// 0 is the 1.5 Mb/s default; at 2 kb/s every B-frame is clamped to
	// frameRecordSize, and at 4 kb/s about half of them are.
	bitRates := []int{0, 2000, 4000, 64000}
	for seed := uint64(0); seed < 50; seed++ {
		for _, d := range durations {
			for _, br := range bitRates {
				p := VideoParams{Duration: d, BitRate: br, Seed: seed}
				if got, want := EncodeMPEG(p), oracleEncodeMPEG(p); !bytes.Equal(got, want) {
					t.Fatalf("EncodeMPEG(%+v): %d bytes differ from the oracle's %d at byte %d", p, len(got), len(want), firstDiff(got, want))
				}
				if got, want := EncodeAVI(p), oracleEncodeAVI(p); !bytes.Equal(got, want) {
					t.Fatalf("EncodeAVI(%+v): %d bytes differ from the oracle's %d at byte %d", p, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
	// Odd geometry and frame rates take the same path.
	p := VideoParams{Duration: 3 * time.Second, Width: 640, Height: 480, FrameRate: 25, BitRate: 3000000, Seed: 99}
	if !bytes.Equal(EncodeMPEG(p), oracleEncodeMPEG(p)) || !bytes.Equal(EncodeAVI(p), oracleEncodeAVI(p)) {
		t.Fatalf("encoders differ from the oracle at %+v", p)
	}
}

func TestVideoOracleClampsFrames(t *testing.T) {
	frames, _, err := ParseMPEG(EncodeMPEG(VideoParams{Duration: time.Second, BitRate: 2000}))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if clamped := f.Size == frameRecordSize; clamped != (f.Kind == BFrame) {
			t.Fatalf("frame %d (%c) at 2 kb/s has %d bytes: want exactly the B-frames clamped to %d", i, f.Kind, f.Size, frameRecordSize)
		}
	}
}

func TestWAVRepeatsOneCycleOfTheFormula(t *testing.T) {
	for _, rate := range []int{8000, 11025, 44100} {
		for _, ch := range []int{1, 2} {
			for _, d := range []time.Duration{0, time.Second / 7, 2 * time.Second, 20 * time.Second} {
				got, want := EncodeWAV(d, rate, ch), oracleEncodeWAV(d, rate, ch)
				if len(got) != len(want) || !bytes.Equal(got[:headerSize], want[:headerSize]) {
					t.Fatalf("WAV %v %d Hz ×%d: %d bytes, header %x; want %d, %x",
						d, rate, ch, len(got), got[:headerSize], len(want), want[:headerSize])
				}
				payload, ref := got[headerSize:], want[headerSize:]
				for i := range payload {
					if diff := int(payload[i]) - int(ref[i]); diff < -1 || diff > 1 {
						t.Fatalf("WAV %v %d Hz ×%d: byte %d is %d, formula gives %d", d, rate, ch, i, payload[i], ref[i])
					}
				}
				cycle := rate / gcd(wavToneHz, rate)
				if !bytes.Equal(payload[:min(cycle, len(payload))], ref[:min(cycle, len(ref))]) {
					t.Fatalf("WAV %v %d Hz ×%d: first cycle is not the formula's", d, rate, ch)
				}
				for i := cycle; i < len(payload); i++ {
					if payload[i] != payload[i-cycle] {
						t.Fatalf("WAV %v %d Hz ×%d: byte %d breaks the %d-byte cycle", d, rate, ch, i, cycle)
					}
				}
			}
		}
	}
	if c := DefaultWAVRate / gcd(wavToneHz, DefaultWAVRate); c != 2205 {
		t.Errorf("cycle at %d Hz = %d samples, want 2205", DefaultWAVRate, c)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
