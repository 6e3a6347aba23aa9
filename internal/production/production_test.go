package production

import (
	"hash/crc32"
	"testing"
	"time"

	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/media"
	"mits/internal/mediastore"
)

func TestProducePerCoding(t *testing.T) {
	c := &Center{SeedBase: 1}
	cases := []struct {
		ref    string
		coding media.Coding
	}{
		{"store/a.mpg", media.CodingMPEG},
		{"store/a.avi", media.CodingAVI},
		{"store/a.wav", media.CodingWAV},
		{"store/a.mid", media.CodingMIDI},
		{"store/a.jpg", media.CodingJPEG},
		{"store/a.html", media.CodingHTML},
		{"store/a", media.CodingASCII},
	}
	for _, tc := range cases {
		obj, err := c.Produce(tc.ref, Hints{Duration: 2 * time.Second, Topic: "test"})
		if err != nil {
			t.Fatalf("Produce(%s): %v", tc.ref, err)
		}
		if obj.Coding != tc.coding {
			t.Errorf("%s coding %s, want %s", tc.ref, obj.Coding, tc.coding)
		}
		if len(obj.Data) == 0 {
			t.Errorf("%s produced empty data", tc.ref)
		}
		// The store keeps the buffer production hands it, so spare
		// capacity would stay resident as long as the object is stored.
		if cap(obj.Data) != len(obj.Data) {
			t.Errorf("%s: cap %d, len %d", tc.ref, cap(obj.Data), len(obj.Data))
		}
		if media.TimeBased(tc.coding) && obj.Meta.Duration != 2*time.Second {
			t.Errorf("%s duration %v, want 2s", tc.ref, obj.Meta.Duration)
		}
	}
	if _, err := c.Produce("", Hints{}); err == nil {
		t.Error("empty ref accepted")
	}
}

func TestProduceDeterministicPerRef(t *testing.T) {
	c := &Center{SeedBase: 7}
	a, _ := c.Produce("store/x.jpg", Hints{Width: 100, Height: 100})
	b, _ := c.Produce("store/x.jpg", Hints{Width: 100, Height: 100})
	if string(a.Data) != string(b.Data) {
		t.Error("same ref produced different data")
	}
	d, _ := c.Produce("store/y.jpg", Hints{Width: 100, Height: 100})
	if string(a.Data) == string(d.Data) {
		t.Error("different refs produced identical data")
	}
}

func TestProduceForCourse(t *testing.T) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	store := mediastore.New()
	c := &Center{}
	produced, err := c.ProduceForCourse(out.Container, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(produced) == 0 {
		t.Fatal("nothing produced")
	}
	// Every media ref of the course now resolves in the content DB.
	for _, ref := range out.MediaRefs {
		if d, err := store.ContentDigest(ref); err != nil || d == 0 {
			t.Errorf("%s missing after production: digest %#x, %v", ref, d, err)
		}
	}
	// The author said the welcome video is 8 seconds; production must
	// deliver 8 seconds.
	rec, err := store.GetContent("store/atm/welcome.mpg")
	if err != nil {
		t.Fatal(err)
	}
	meta, err := media.Decode(media.CodingMPEG, rec.Data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Duration != 8*time.Second {
		t.Errorf("welcome video %v, want 8s per the author's spec", meta.Duration)
	}
}

func TestStockLibrary(t *testing.T) {
	store := mediastore.New()
	c := &Center{}
	docs, err := c.StockLibrary(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 5 {
		t.Fatalf("library of %d docs", len(docs))
	}
	for _, d := range docs {
		rec, err := store.GetContent(d.Ref)
		if err != nil {
			t.Errorf("library doc %s missing: %v", d.Name, err)
			continue
		}
		if rec.Coding != string(media.CodingHTML) {
			t.Errorf("library doc %s coding %s", d.Name, rec.Coding)
		}
	}
}

func TestCodingFor(t *testing.T) {
	if CodingFor("x.mpeg") != media.CodingMPEG || CodingFor("x.midi") != media.CodingMIDI ||
		CodingFor("x.htm") != media.CodingHTML || CodingFor("x.txt") != media.CodingASCII {
		t.Error("CodingFor misclassifies")
	}
}

// sampleCourseObjects is what production makes of the sample ATM course
// and its 20 s introduction clip: byte counts, and for every object but
// the WAVs (whose bytes may move by ±1 with float rounding) the CRC-32
// of its encoding. testdata/session.golden prints the same sizes.
var sampleCourseObjects = map[string]struct {
	size int
	crc  uint32
}{
	"store/atm/welcome.mpg":      {1511276, 0x3c7c8ab5},
	"store/atm/welcome.mid":      {720, 0x863451d8},
	"store/atm/cell-format.jpg":  {18040, 0x164d8685},
	"store/atm/cells.wav":        {330790, 0},
	"store/atm/switching.wav":    {496165, 0},
	"store/atm/switch-anim.mpg":  {5612243, 0x993a73c6},
	"store/atm/introduction.mpg": {3732266, 0x340b45a3},
}

// recordSink keeps what it is given.
type recordSink map[string][]byte

func (s recordSink) PutContent(ref, coding string, data []byte, keywords ...string) error {
	s[ref] = data
	return nil
}

func (s recordSink) ContentDigest(ref string) (uint64, error) {
	return mediastore.Digest(string(CodingFor(ref)), s[ref]), nil
}

// discardSink drops what it is given, and so holds nothing.
type discardSink struct{}

func (discardSink) PutContent(ref, coding string, data []byte, keywords ...string) error { return nil }
func (discardSink) ContentDigest(string) (uint64, error)                                 { return 0, nil }

// produceSampleCourse produces the sample ATM course's media and its
// introduction clip into sink, as mits.Publisher does on a publish. The
// Center is a fresh one on every call, which remembers nothing, so the
// call produces every object: what the production benchmark measures is
// production, not a publish that finds its media already stored.
func produceSampleCourse(tb testing.TB, out *courseware.Compiled, sink ContentSink) {
	c := &Center{}
	if _, err := c.ProduceForCourse(out.Container, sink); err != nil {
		tb.Fatal(err)
	}
	intro, err := c.Produce("store/atm/introduction.mpg", Hints{Duration: 20 * time.Second, Topic: "Introduction to ATM"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sink.PutContent(intro.ID, string(intro.Coding), intro.Data); err != nil {
		tb.Fatal(err)
	}
}

func TestSampleCourseObjectsKeepTheirBytes(t *testing.T) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	got := recordSink{}
	produceSampleCourse(t, out, got)
	if len(got) != len(sampleCourseObjects) {
		t.Errorf("produced %d objects, want %d", len(got), len(sampleCourseObjects))
	}
	for ref, want := range sampleCourseObjects {
		data, ok := got[ref]
		if !ok {
			t.Errorf("%s not produced", ref)
			continue
		}
		if len(data) != want.size {
			t.Errorf("%s: %d bytes, want %d", ref, len(data), want.size)
		}
		if CodingFor(ref) == media.CodingWAV {
			continue
		}
		if crc := crc32.ChecksumIEEE(data); crc != want.crc {
			t.Errorf("%s: CRC-32 %#08x, want %#08x", ref, crc, want.crc)
		}
	}
}

// BenchmarkProduceCourse is one first publish's production work: the
// sample ATM course's six objects and a 20 s introduction clip, by a
// fresh Center into a sink that discards them (EXPERIMENTS E51).
func BenchmarkProduceCourse(b *testing.B) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		produceSampleCourse(b, out, discardSink{})
	}
}

// BenchmarkRepublishCourse is what a publish of a course whose media the
// store already holds costs the production center: the sample ATM
// course walked again on the Center that produced it into the same
// Store, each of its six objects skipped after one ContentDigest
// (EXPERIMENTS E53). The introduction clip, produced on every publish,
// is BenchmarkProduceCourse's.
func BenchmarkRepublishCourse(b *testing.B) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		b.Fatal(err)
	}
	c, store := &Center{}, mediastore.New()
	if _, err := c.ProduceForCourse(out.Container, store); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ProduceForCourse(out.Container, store); err != nil {
			b.Fatal(err)
		}
	}
}
