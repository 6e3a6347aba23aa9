package navigator

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mits/internal/cache"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/school"
)

// A navigator with a content cache keeps each course's decoded,
// validated document there (a course image) and loads it into the next
// open's fresh engine while the store serves the same bytes.

const atmImageKey = imageKeyPrefix + "atm-course"

func cachedImage(t *testing.T, c *cache.Cache, key string) *courseImage {
	t.Helper()
	v, ok := c.Get(key)
	if !ok {
		t.Fatalf("no image under %q", key)
	}
	img, ok := v.(*courseImage)
	if !ok {
		t.Fatalf("%q holds a %T", key, v)
	}
	return img
}

// freshDecode decodes and validates an image's bytes anew.
func freshDecode(t *testing.T, img *courseImage) mheg.Object {
	t.Helper()
	enc, err := codec.ByName(img.encoding)
	if err != nil {
		t.Fatal(err)
	}
	root, err := enc.Decode(img.data)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	return root
}

func enrolled(t *testing.T, nav *Navigator, name, code string) {
	t.Helper()
	if _, err := nav.Register(school.Profile{Name: name}); err != nil {
		t.Fatal(err)
	}
	if err := nav.Enroll(code); err != nil {
		t.Fatal(err)
	}
}

// playThrough opens the ATM course and uses it: forty seconds of play,
// the cell diagram, on to switching, Stop, exit.
func playThrough(t *testing.T, nav *Navigator) {
	t.Helper()
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	nav.Clock().RunFor(40 * time.Second)
	for _, label := range []string{"Show cell diagram", "Continue", "Stop"} {
		if err := nav.Click(label); err != nil {
			t.Fatalf("%v; screen:\n%s", err, nav.Screen())
		}
	}
	if err := nav.ExitCourse(); err != nil {
		t.Fatal(err)
	}
}

// TestCourseImageImmutable: a whole session on the cached image leaves
// it equal to a fresh decode of its bytes, and the next open loads the
// same objects rather than decoding again.
func TestCourseImageImmutable(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	nav, _, _ := buildCachedSchool(t, c)
	enrolled(t, nav, "A", "ELG5121")
	playThrough(t, nav)
	img := cachedImage(t, c, atmImageKey)
	if !reflect.DeepEqual(img.root, freshDecode(t, img)) {
		t.Error("the cached root differs from a fresh decode of its bytes after a session")
	}

	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if again := cachedImage(t, c, atmImageKey); again != img {
		t.Error("a second open of unchanged bytes replaced the image")
	}
	if m, ok := nav.Engine().Model(img.root.Base().ID); !ok || m != img.root {
		t.Error("the second open's engine does not hold the cached root")
	}
	if nav.Engine().Stats.ObjectsDecoded != 0 {
		t.Errorf("the second open decoded %d objects, want 0", nav.Engine().Stats.ObjectsDecoded)
	}
}

// TestCourseImageRepublish: a republished document is presented on the
// next open, and its image replaces the old one.
func TestCourseImageRepublish(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	nav, store, _ := buildCachedSchool(t, c)
	enrolled(t, nav, "A", "ELG5121")
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	old := cachedImage(t, c, atmImageKey)

	doc := document.SampleATMCourse()
	doc.Title = "ATM Technology, second edition"
	out, err := courseware.CompileIMD(doc, "atm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.PutDocument("atm-course", doc.Title, "asn1", data, "network/atm"); err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	img := cachedImage(t, c, atmImageKey)
	if img == old || !reflect.DeepEqual(img.data, data) {
		t.Fatal("the republished document did not replace the image")
	}
	if m, ok := nav.Engine().Model(nav.rootID); !ok || m.Base().Info.Name != doc.Title {
		t.Errorf("presenting %+v, want the root titled %q", m, doc.Title)
	}
}

// TestCourseImageSharedCache: navigators sharing one cache open, play and
// leave the same course at once (run under -race by make racestress);
// the image they all load stays equal to a fresh decode.
func TestCourseImageSharedCache(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	nav, store, sch := buildCachedSchool(t, c)
	navs := []*Navigator{nav, attachNavigator(store, sch, c), attachNavigator(store, sch, c)}
	for i, n := range navs {
		enrolled(t, n, fmt.Sprintf("S%d", i), "ELG5121")
	}
	var wg sync.WaitGroup
	for _, n := range navs {
		wg.Add(1)
		go func(n *Navigator) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := n.StartCourse("ELG5121"); err != nil {
					t.Error(err)
					return
				}
				n.Clock().RunFor(9 * time.Second)
				if err := n.Click("Show cell diagram"); err != nil {
					t.Error(err)
				}
				if err := n.ExitCourse(); err != nil {
					t.Error(err)
				}
			}
		}(n)
	}
	wg.Wait()
	img := cachedImage(t, c, atmImageKey)
	if !reflect.DeepEqual(img.root, freshDecode(t, img)) {
		t.Error("the shared root differs from a fresh decode of its bytes")
	}
}

// TestCourseImageKeySpace: a content read cannot reach an image's key,
// and a value of another type under it is a miss that the next open
// replaces.
func TestCourseImageKeySpace(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	nav, _, _ := buildCachedSchool(t, c)
	enrolled(t, nav, "A", "ELG5121")
	c.Add(atmImageKey, &mediastore.ContentRecord{Ref: atmImageKey, Data: []byte("x")}, 1)
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	cachedImage(t, c, atmImageKey)
	if _, err := nav.ReadLibrary(atmImageKey); err == nil || !strings.Contains(err.Error(), "NUL") {
		t.Errorf("ReadLibrary of an image key: %v, want refused", err)
	}
	if _, err := nav.ReadLibraryStream(atmImageKey, nil); err == nil {
		t.Error("ReadLibraryStream of an image key was not refused")
	}
	if _, err := nav.db.FetchContent(atmImageKey); err == nil {
		t.Error("the engine's resolver fetched an image key")
	}
}

// TestCourseImageCost: the cache is charged imageCostFactor × the
// document's size, which covers the bytes kept plus what decoding and
// validating them allocates.
func TestCourseImageCost(t *testing.T) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	decoded := ^uint64(0)
	for try := 0; try < 10; try++ { // process-wide counter: the least delta
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		root, err := codec.ASN1().Decode(data)
		if err == nil {
			err = root.Validate()
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		decoded = min(decoded, after.TotalAlloc-before.TotalAlloc)
	}
	kept := uint64(len(data)) + decoded
	charged := uint64(imageCostFactor * len(data))
	t.Logf("sample course: %d bytes, decode+validate allocates %d, charged %d", len(data), decoded, charged)
	if charged < kept {
		t.Errorf("an image of %d bytes that decodes into %d is charged %d, want ≥ %d", len(data), decoded, charged, kept)
	}
}

// TestWarmOpenAllocBudget: opening a course whose image is cached,
// over loopback, allocates at most warmOpenBudget objects; a cold open
// (image evicted before each) decodes and validates again.
func TestWarmOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops on purpose under -race; allocation counts are not the program's")
	}
	const warmOpenBudget = 300
	c := cache.New("navigator-test", 1<<30)
	nav, _, _ := buildCachedSchool(t, c)
	enrolled(t, nav, "A", "ELG5121")
	open := func() {
		if err := nav.StartCourse("ELG5121"); err != nil {
			t.Fatal(err)
		}
	}
	open()
	warm := testing.AllocsPerRun(50, open)
	cold := testing.AllocsPerRun(50, func() { c.Remove(atmImageKey); open() })
	t.Logf("StartCourse over loopback: warm %.0f allocs, cold %.0f", warm, cold)
	if warm > warmOpenBudget {
		t.Errorf("a warm open allocates %.0f objects, budget %d", warm, warmOpenBudget)
	}
	if cold <= warm {
		t.Errorf("a cold open allocates %.0f objects, no more than a warm one (%.0f)", cold, warm)
	}
}
