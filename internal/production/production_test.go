package production

import (
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
	produced, err := c.ProduceForCourse(out, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(produced) == 0 {
		t.Fatal("nothing produced")
	}
	// Every media ref of the course now resolves in the content DB.
	if missing := store.HasContent(out.MediaRefs...); len(missing) != 0 {
		t.Errorf("missing after production: %v", missing)
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
