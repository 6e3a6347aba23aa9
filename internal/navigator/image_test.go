package navigator

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/cache"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/school"
	"mits/internal/sim"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// A navigator with a content cache keeps each course's decoded,
// validated document there (a course image) and, while the store
// answers "unchanged" to the image's digest, hands the next open's fresh
// engine the image's model index instead of the document.

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

// freshDecode decodes and validates rec anew and returns the root and
// the index a fresh engine's Load makes of it.
func freshDecode(t *testing.T, rec *mediastore.DocRecord) (mheg.Object, map[mheg.ID]mheg.Object) {
	t.Helper()
	enc, err := codec.ByName(rec.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	root, err := enc.Decode(rec.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	e := engine.New(sim.NewClock())
	if err := e.Load(root); err != nil {
		t.Fatal(err)
	}
	return root, e.Index()
}

// checkImage: img is what decoding the store's copy of doc gives, and
// was made from that copy.
func checkImage(t *testing.T, store *mediastore.Store, doc string, img *courseImage) {
	t.Helper()
	rec, err := store.GetDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if img.digest != rec.Digest {
		t.Errorf("image digest %#x, the store's document is at %#x", img.digest, rec.Digest)
	}
	root, index := freshDecode(t, rec)
	if !reflect.DeepEqual(img.root, root) {
		t.Error("the cached root differs from a fresh decode of the document")
	}
	if !reflect.DeepEqual(img.index, index) {
		t.Error("the cached index differs from a fresh Load's")
	}
	if img.index[img.root.Base().ID] != img.root {
		t.Error("the cached index does not hold the cached root")
	}
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
// it equal to a fresh decode of the document, and the next open loads
// the same objects rather than decoding again.
func TestCourseImageImmutable(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	nav, store, _ := buildCachedSchool(t, c)
	enrolled(t, nav, "A", "ELG5121")
	playThrough(t, nav)
	img := cachedImage(t, c, atmImageKey)
	checkImage(t, store, "atm-course", img)

	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if again := cachedImage(t, c, atmImageKey); again != img {
		t.Error("a second open of an unchanged document replaced the image")
	}
	if m, ok := nav.engine.Model(img.root.Base().ID); !ok || m != img.root {
		t.Error("the second open's engine does not hold the cached root")
	}
	if got, want := nav.engine.Models(), len(img.index); got != want {
		t.Errorf("the second open's engine holds %d models, the image %d", got, want)
	}
	if nav.engine.Stats.ObjectsDecoded != 0 {
		t.Errorf("the second open decoded %d objects, want 0", nav.engine.Stats.ObjectsDecoded)
	}
	nav.Clock().RunFor(40 * time.Second) // a session on the adopted index
	if err := nav.ExitCourse(); err != nil {
		t.Fatal(err)
	}
	checkImage(t, store, "atm-course", img)
}

// republish puts a new edition of the ATM course under "atm-course" and
// returns its title.
func republish(t *testing.T, store *mediastore.Store, edition int) string {
	t.Helper()
	doc := document.SampleATMCourse()
	doc.Title = fmt.Sprintf("ATM Technology, edition %d", edition)
	out, err := courseware.CompileIMD(doc, "atm")
	if err != nil {
		t.Error(err)
		return ""
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Error(err)
		return ""
	}
	if _, err := store.PutDocument("atm-course", doc.Title, "asn1", data, "network/atm"); err != nil {
		t.Error(err)
	}
	return doc.Title
}

// presenting is the title of the root the navigator presents.
func presenting(nav *Navigator) string {
	if m, ok := nav.engine.Model(nav.rootID); ok {
		return m.Base().Info.Name
	}
	return ""
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

	title := republish(t, store, 2)
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	img := cachedImage(t, c, atmImageKey)
	if img == old || img.digest == old.digest {
		t.Fatal("the republished document did not replace the image")
	}
	checkImage(t, store, "atm-course", img)
	if got := presenting(nav); got != title {
		t.Errorf("presenting %q, want %q", got, title)
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
	checkImage(t, store, "atm-course", cachedImage(t, c, atmImageKey))
}

// TestCourseImageRepublishUnderRevalidation: navigators sharing one
// cache open and play the course while another goroutine republishes it
// (run under -race by make racestress). Every open presents an edition
// that was published, the image left behind is a decode of the copy its
// digest names, and once publishing stops every navigator's next open
// presents the last edition.
func TestCourseImageRepublishUnderRevalidation(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	nav, store, sch := buildCachedSchool(t, c)
	navs := []*Navigator{nav, attachNavigator(store, sch, c), attachNavigator(store, sch, c)}
	for i, n := range navs {
		enrolled(t, n, fmt.Sprintf("S%d", i), "ELG5121")
	}
	const editions = 6
	published := map[string]bool{document.SampleATMCourse().Title: true}
	for e := 1; e <= editions; e++ {
		published[fmt.Sprintf("ATM Technology, edition %d", e)] = true
	}
	// The publisher puts edition e once the navigators have opened 3e
	// times between them, or once they have all stopped.
	var opens atomic.Int64
	navsDone := make(chan struct{})
	last := make(chan string, 1)
	go func() {
		var title string
		for e := 1; e <= editions; e++ {
			for waiting := true; waiting && opens.Load() < int64(3*e); {
				select {
				case <-navsDone:
					waiting = false
				default:
					runtime.Gosched()
				}
			}
			title = republish(t, store, e)
		}
		last <- title
	}()
	var wg sync.WaitGroup
	for _, n := range navs {
		wg.Add(1)
		go func(n *Navigator) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := n.StartCourse("ELG5121"); err != nil {
					t.Error(err)
					return
				}
				opens.Add(1)
				if got := presenting(n); !published[got] {
					t.Errorf("presenting %q, never published", got)
				}
				n.Clock().RunFor(9 * time.Second)
				if err := n.ExitCourse(); err != nil {
					t.Error(err)
				}
			}
		}(n)
	}
	wg.Wait()
	close(navsDone)
	title := <-last
	for _, n := range navs {
		if err := n.StartCourse("ELG5121"); err != nil {
			t.Fatal(err)
		}
		if got := presenting(n); got != title {
			t.Errorf("after the last publish a navigator presents %q, want %q", got, title)
		}
	}
	checkImage(t, store, "atm-course", cachedImage(t, c, atmImageKey))
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
// document's size, which covers what decoding and validating it
// allocates plus the model index the image keeps.
func TestCourseImageCost(t *testing.T) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	kept := ^uint64(0)
	for try := 0; try < 10; try++ { // process-wide counter: the least delta
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		root, err := codec.ASN1().Decode(data)
		if err == nil {
			err = root.Validate()
		}
		e := engine.New(sim.NewClock())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		decoded := after.TotalAlloc - before.TotalAlloc
		if err := e.Load(root); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		_ = e.Index()
		runtime.ReadMemStats(&after)
		kept = min(kept, decoded+after.TotalAlloc-before.TotalAlloc)
	}
	charged := uint64(imageCostFactor * len(data))
	t.Logf("sample course: %d bytes, decode+validate+index allocates %d, charged %d", len(data), kept, charged)
	if charged < kept {
		t.Errorf("an image of %d bytes whose decode and index allocate %d is charged %d, want ≥ %d", len(data), kept, charged, kept)
	}
}

// TestWarmOpenShipsNoDocument: over loopback and over TCP, the first
// open receives the course document and every later open of the
// unchanged course receives none of its bytes, only the store's
// "unchanged" to the image's digest.
func TestWarmOpenShipsNoDocument(t *testing.T) {
	c := cache.New("navigator-test", 1<<30)
	_, store, sch := buildCachedSchool(t, c)
	stored, err := store.GetDocument("atm-course")
	if err != nil {
		t.Fatal(err)
	}
	digest := stored.Digest
	dbMux := transport.NewMux()
	transport.RegisterStore(dbMux, store)
	schoolMux := transport.NewMux()
	school.RegisterService(schoolMux, sch)
	srv := transport.NewTCPServer(dbMux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	for _, carrier := range []struct {
		name string
		db   transport.Client
	}{{"loopback", transport.Loopback{H: dbMux}}, {"tcp", tcp}} {
		c.Remove(atmImageKey)
		rec := &wiretest.Recorder{Next: carrier.db}
		nav := New(Options{DB: rec, School: transport.Loopback{H: schoolMux}, ContentCache: c})
		enrolled(t, nav, "S-"+carrier.name, "ELG5121")
		var shipped []int // document bytes received per open
		for open := 0; open < 3; open++ {
			rec.Calls = rec.Calls[:0]
			if err := nav.StartCourse("ELG5121"); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, call := range rec.Calls {
				if call.Method != transport.MethodGetDoc {
					continue
				}
				// Decoded as the stub decodes it, asked with the digest held.
				reply := transport.HandlerFunc(func(string, []byte) ([]byte, error) { return call.Resp, nil })
				doc, err := transport.DBClient{C: transport.Loopback{H: reply}}.GetSelectedDoc("atm-course", digest)
				if err != nil {
					t.Fatal(err)
				}
				n += len(doc.Data)
			}
			shipped = append(shipped, n)
		}
		if shipped[0] == 0 || shipped[1] != 0 || shipped[2] != 0 {
			t.Errorf("%s: document bytes received per open %v, want [>0 0 0]", carrier.name, shipped)
		}
	}
}

// TestWarmOpenAllocBudget: opening a course whose image is cached,
// over loopback, allocates at most warmOpenBudget objects; a cold open
// (image evicted before each) decodes and validates again.
func TestWarmOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops on purpose under -race; allocation counts are not the program's")
	}
	const warmOpenBudget = 90 // 82 measured with the adopted index, the slab register, no document on the wire, the stop position in the course record and the payload codec, + 10 %
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
