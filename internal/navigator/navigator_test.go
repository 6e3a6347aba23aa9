package navigator

import (
	"strings"
	"testing"
	"time"

	"mits/internal/atm"
	"mits/internal/cache"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg/codec"
	"mits/internal/production"
	"mits/internal/school"
	"mits/internal/transport"
)

// buildSchool assembles a complete TeleSchool backend: compiled ATM
// course in the database, produced media, library holdings, and the
// administration records — everything behind loopback transports.
func buildSchool(t *testing.T) (*Navigator, *mediastore.Store, *school.School) {
	t.Helper()
	return buildCachedSchool(t, nil)
}

// buildCachedSchool is buildSchool with c as the navigator's content
// cache (nil for none).
func buildCachedSchool(t *testing.T, c *cache.Cache) (*Navigator, *mediastore.Store, *school.School) {
	t.Helper()
	store := mediastore.New()
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.PutDocument("atm-course", "ATM Technology", "asn1", data, "network/atm"); err != nil {
		t.Fatal(err)
	}
	center := &production.Center{}
	if _, err := center.ProduceForCourse(out.Container, store); err != nil {
		t.Fatal(err)
	}
	if _, err := center.StockLibrary(store); err != nil {
		t.Fatal(err)
	}
	intro, err := center.Produce("store/atm/course-intro.mpg", production.Hints{Duration: 30 * time.Second, Topic: "course introduction"})
	if err != nil {
		t.Fatal(err)
	}
	store.PutContent(intro.ID, string(intro.Coding), intro.Data)

	sch := school.New("MIRL TeleSchool")
	sch.AddCourse(school.Course{
		Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
		PlannedSessions: 4, Document: "atm-course", IntroRef: "store/atm/course-intro.mpg",
	})

	return attachNavigator(store, sch, c), store, sch
}

// attachNavigator opens a navigator on store and sch over loopback.
func attachNavigator(store *mediastore.Store, sch *school.School, c *cache.Cache) *Navigator {
	dbMux := transport.NewMux()
	transport.RegisterStore(dbMux, store)
	schoolMux := transport.NewMux()
	school.RegisterService(schoolMux, sch)
	return New(Options{
		DB:           transport.Loopback{H: dbMux},
		School:       transport.Loopback{H: schoolMux},
		ContentCache: c,
	})
}

func TestRegistrationAndLogin(t *testing.T) {
	nav, _, _ := buildSchool(t)
	num, err := nav.Register(school.Profile{Name: "Ruiping Wang", Email: "rw@uottawa.ca"})
	if err != nil || num == "" {
		t.Fatalf("register: %q %v", num, err)
	}
	if nav.student != num {
		t.Error("not logged in after registration")
	}
	// Fresh navigator, existing number (Fig 5.3's returning student).
	nav2, _, _ := buildSchool(t)
	if err := nav2.Login("000000"); err == nil {
		t.Error("login with unknown number succeeded")
	}
	if err := nav2.UpdateProfile(school.Profile{Name: "x"}); err == nil {
		t.Error("profile update without login succeeded")
	}
	if err := nav2.Enroll("ELG5121"); err == nil {
		t.Error("enroll without login succeeded")
	}
	if err := nav2.StartCourse("ELG5121"); err == nil {
		t.Error("course start without login succeeded")
	}
}

func TestCourseRegistrationDialog(t *testing.T) {
	nav, _, _ := buildSchool(t)
	nav.Register(school.Profile{Name: "A"})
	progs, err := nav.Programs()
	if err != nil || len(progs) != 1 || progs[0] != "Engineering" {
		t.Fatalf("programs %v err=%v", progs, err)
	}
	courses, err := nav.CoursesIn("Engineering")
	if err != nil || len(courses) != 1 {
		t.Fatalf("courses %v err=%v", courses, err)
	}
	intro, err := nav.CourseIntroduction("ELG5121")
	if err != nil {
		t.Fatal(err)
	}
	meta, err := media.Decode(media.CodingMPEG, intro.Data)
	if err != nil || meta.Duration != 30*time.Second {
		t.Errorf("intro clip meta %+v err=%v", meta, err)
	}
	if err := nav.Enroll("ELG5121"); err != nil {
		t.Fatal(err)
	}
}

func TestClassroomPresentation(t *testing.T) {
	nav, _, _ := buildSchool(t)
	nav.Register(school.Profile{Name: "A"})
	nav.Enroll("ELG5121")
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if got := nav.Scenes(); len(got) != 4 {
		t.Fatalf("scenes %v", got)
	}
	scene, _ := nav.CurrentScene()
	if scene != "intro" {
		t.Fatalf("current scene %q, want intro", scene)
	}
	// The welcome video should be playing on the virtual screen.
	playing := nav.Screen().Playing()
	if len(playing) == 0 {
		t.Fatal("nothing playing in the intro scene")
	}
	// Let the intro run out; auto-advance lands in "cells".
	nav.Clock().RunFor(9 * time.Second)
	scene, elapsed := nav.CurrentScene()
	if scene != "cells" {
		t.Fatalf("scene after intro %q, want cells", scene)
	}
	if elapsed > 2*time.Second {
		t.Errorf("elapsed in cells %v", elapsed)
	}
	// The choice button is clickable; text content displays.
	if _, ok := nav.Screen().Find("Show cell diagram"); !ok {
		t.Fatalf("choice button missing; screen:\n%s", nav.Screen())
	}
	found := false
	for _, it := range nav.Screen().Display("stage") {
		if it.Kind == KindText && strings.Contains(it.Label, "ATM cell is 53 bytes") {
			found = it.Running
		}
	}
	if !found {
		t.Errorf("cells text not running; screen:\n%s", nav.Screen())
	}
	// Click the choice: the diagram image appears immediately.
	if err := nav.Click("Show cell diagram"); err != nil {
		t.Fatal(err)
	}
	diagram := false
	for _, it := range nav.Screen().Display("stage") {
		if it.Kind == KindImage && it.Running {
			diagram = true
		}
	}
	if !diagram {
		t.Errorf("diagram not shown after click; screen:\n%s", nav.Screen())
	}
	// Clicking a non-button fails loudly.
	if err := nav.Click("no such thing"); err == nil {
		t.Error("phantom click succeeded")
	}
	// Continue into the switching scene via the injected button.
	if err := nav.Click("Continue"); err != nil {
		t.Fatal(err)
	}
	scene, _ = nav.CurrentScene()
	if scene != "switching" {
		t.Errorf("scene after Continue %q", scene)
	}
	// The Fig 4.4c stop button halts all three objects.
	if err := nav.Click("Stop"); err != nil {
		t.Fatal(err)
	}
	if got := nav.Screen().Playing(); len(got) != 0 {
		t.Errorf("still playing after Stop: %v", got)
	}
}

func TestResumePosition(t *testing.T) {
	nav, _, sch := buildSchool(t)
	num, _ := nav.Register(school.Profile{Name: "A"})
	nav.Enroll("ELG5121")
	nav.StartCourse("ELG5121")
	nav.Clock().RunFor(9 * time.Second) // into "cells"
	if err := nav.Bookmark("cell formats"); err != nil {
		t.Fatal(err)
	}
	if err := nav.ExitCourse(); err != nil {
		t.Fatal(err)
	}
	st, _ := sch.Student(num)
	if st.Resume["ELG5121"].Scene != "cells" {
		t.Fatalf("stored resume %+v", st.Resume)
	}
	if len(st.Bookmarks) != 1 || st.Bookmarks[0].Scene != "cells" {
		t.Errorf("bookmarks %+v", st.Bookmarks)
	}
	if st.Courses[0].SessionsDone != 1 {
		t.Errorf("session not recorded: %+v", st.Courses)
	}

	// Re-enter: presentation resumes in "cells", not "intro".
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	scene, _ := nav.CurrentScene()
	if scene != "cells" {
		t.Errorf("resumed in %q, want cells", scene)
	}
}

func TestGotoSceneAndBookmarkJump(t *testing.T) {
	nav, _, _ := buildSchool(t)
	nav.Register(school.Profile{Name: "A"})
	nav.Enroll("ELG5121")
	nav.StartCourse("ELG5121")
	if err := nav.GotoScene("quiz"); err != nil {
		t.Fatal(err)
	}
	scene, _ := nav.CurrentScene()
	if scene != "quiz" {
		t.Fatalf("scene %q after goto", scene)
	}
	// Answer the quiz.
	if err := nav.Click("53 bytes"); err != nil {
		t.Fatal(err)
	}
	correct := false
	for _, it := range nav.Screen().Display("stage") {
		if it.Running && strings.Contains(it.Label, "Correct") {
			correct = true
		}
	}
	if !correct {
		t.Errorf("quiz feedback missing; screen:\n%s", nav.Screen())
	}
	if err := nav.GotoScene("zzz"); err == nil {
		t.Error("goto unknown scene succeeded")
	}
}

func TestLibraryBrowsing(t *testing.T) {
	nav, _, _ := buildSchool(t)
	nav.Register(school.Profile{Name: "A"})
	tree, err := nav.LibraryTree()
	if err != nil || len(tree.Children) == 0 {
		t.Fatalf("tree %+v err=%v", tree, err)
	}
	// Keyword search over content keywords requires content-level
	// indexing; the store indexes documents. Use the course document.
	docs, err := nav.SearchLibrary("network/atm")
	if err != nil || len(docs) != 1 || docs[0] != "atm-course" {
		t.Fatalf("search %v err=%v", docs, err)
	}
	rec, err := nav.ReadLibrary("library/atm-handbook.html")
	if err != nil {
		t.Fatal(err)
	}
	txt, err := media.TextContent(media.CodingHTML, rec.Data)
	if err != nil || !strings.Contains(txt, "The ATM Handbook") {
		t.Errorf("library doc %q err=%v", txt[:60], err)
	}
}

func TestSGMLCourseDelivery(t *testing.T) {
	// Publish the hypermedia course in SGML and navigate it.
	nav, store, sch := buildSchool(t)
	out, err := courseware.CompileHyper(document.SampleHyperCourse(), "net")
	if err != nil {
		t.Fatal(err)
	}
	text, err := codec.SGML().Encode(out.Container)
	if err != nil {
		t.Fatal(err)
	}
	store.PutDocument("net-course", "Networking Basics", "sgml", text, "network")
	(&production.Center{}).ProduceForCourse(out.Container, store)
	sch.AddCourse(school.Course{Code: "ELG5374", Name: "Networks", Program: "Engineering",
		PlannedSessions: 2, Document: "net-course"})

	nav.Register(school.Profile{Name: "B"})
	nav.Enroll("ELG5374")
	if err := nav.StartCourse("ELG5374"); err != nil {
		t.Fatal(err)
	}
	page, _ := nav.CurrentScene()
	if page != "s1" {
		t.Fatalf("start page %q", page)
	}
	if err := nav.Click("Next Section"); err != nil {
		t.Fatal(err)
	}
	page, _ = nav.CurrentScene()
	if page != "s2" {
		t.Errorf("page after Next %q", page)
	}
	if err := nav.Click("Test Your Knowledge"); err != nil {
		t.Fatal(err)
	}
	page, _ = nav.CurrentScene()
	if page != "q1" {
		t.Errorf("page after test %q", page)
	}
}

func TestContentFetchedThroughDatabase(t *testing.T) {
	nav, store, _ := buildSchool(t)
	nav.Register(school.Profile{Name: "A"})
	nav.Enroll("ELG5121")
	nav.StartCourse("ELG5121")
	nav.Clock().RunFor(time.Second)
	_, contentReads, _ := store.Stats()
	if contentReads == 0 {
		t.Error("presentation never pulled content from the database")
	}
	if nav.engine.Stats.BytesFetched == 0 {
		t.Error("engine fetched no content bytes")
	}
}

func TestStreamVideoOverCBRvsCongestedUBR(t *testing.T) {
	// E17's core claim in miniature.
	build := func() (*atm.Network, *atm.Host, *atm.Host, *atm.Host, *atm.Host) {
		n := atm.New()
		n.BufferCells = 96
		srv := n.AddHost("server")
		cli := n.AddHost("client")
		x1 := n.AddHost("cross-src")
		x2 := n.AddHost("cross-dst")
		s1 := n.AddSwitch("s1")
		s2 := n.AddSwitch("s2")
		n.Connect(srv, s1, 155e6, 200*time.Microsecond)
		n.Connect(x1, s1, 155e6, 200*time.Microsecond)
		n.Connect(s1, s2, 10e6, 200*time.Microsecond) // tight bottleneck
		n.Connect(s2, cli, 155e6, 200*time.Microsecond)
		n.Connect(s2, x2, 155e6, 200*time.Microsecond)
		return n, srv, cli, x1, x2
	}
	video := media.EncodeMPEG(media.VideoParams{Duration: 4 * time.Second, BitRate: 1.5e6, Seed: 3})

	// Shaped 30 Mb/s of cross traffic keeps the 10 Mb/s bottleneck
	// congested for the whole 4s playback.
	congest := func(n *atm.Network, from, to *atm.Host) {
		flood, err := n.Open(from, to, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			flood.Send(make([]byte, 4000))
		}
	}

	// Reserved contract with congestion: video unaffected.
	n, srv, cli, x1, x2 := build()
	congest(n, x1, x2)
	cbr, err := StreamVideo(n, srv, cli, atm.VBRContract(2e6, 8e6, 200), video, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cbr.MissRate() > 0.01 {
		t.Errorf("reserved stream missed %.1f%% of deadlines under congestion", 100*cbr.MissRate())
	}

	// Best-effort under the same flood: heavy misses.
	n2, srv2, cli2, y1, y2 := build()
	congest(n2, y1, y2)
	ubr, err := StreamVideo(n2, srv2, cli2, atm.UBRContract(8e6), video, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ubr.MissRate() <= cbr.MissRate() {
		t.Errorf("best-effort miss rate %.2f not worse than reserved %.2f", ubr.MissRate(), cbr.MissRate())
	}
	// Under sustained congestion the best-effort stream either loses
	// most of its frames outright or jitters worse than the reserved
	// one; both are unwatchable, either satisfies the paper's claim.
	lossy := ubr.Delivered < ubr.Frames/2
	if !lossy && ubr.Jitter.Mean() <= cbr.Jitter.Mean() {
		t.Errorf("best-effort jitter %v not worse than reserved %v (delivered %d/%d)",
			time.Duration(ubr.Jitter.Mean()), time.Duration(cbr.Jitter.Mean()), ubr.Delivered, ubr.Frames)
	}
}

func TestStreamVideoAdaptiveCleanPathStaysFullQuality(t *testing.T) {
	n := atm.New()
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	sw := n.AddSwitch("s1")
	n.Connect(srv, sw, 155e6, 200*time.Microsecond)
	n.Connect(sw, cli, 155e6, 200*time.Microsecond)
	video := media.EncodeMPEG(media.VideoParams{Duration: 2 * time.Second, BitRate: 1.5e6, Seed: 3})
	stats, err := StreamVideoAdaptive(n, srv, cli, atm.VBRContract(2e6, 8e6, 200), video, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLevel != DegradeNone || stats.Degraded != 0 || stats.Skipped != 0 {
		t.Errorf("clean path degraded: level=%v degraded=%d skipped=%d",
			stats.MaxLevel, stats.Degraded, stats.Skipped)
	}
	if stats.MissRate() > 0.01 {
		t.Errorf("clean adaptive stream missed %.1f%% of deadlines", 100*stats.MissRate())
	}
}

func TestStreamVideoAdaptiveDegradesOnStarvedPath(t *testing.T) {
	// A 600 kb/s bottleneck cannot carry the 1.5 Mb/s stream at full
	// quality: the rigid sender stalls its tail into oblivion, while
	// the adaptive sender climbs the ladder (smaller frames, then
	// skipping B-frames) and keeps what it does send closer to
	// schedule.
	build := func() (*atm.Network, *atm.Host, *atm.Host) {
		n := atm.New()
		srv := n.AddHost("server")
		cli := n.AddHost("client")
		sw := n.AddSwitch("s1")
		n.Connect(srv, sw, 155e6, 200*time.Microsecond)
		n.Connect(sw, cli, 600e3, 200*time.Microsecond)
		return n, srv, cli
	}
	video := media.EncodeMPEG(media.VideoParams{Duration: 2 * time.Second, BitRate: 1.5e6, Seed: 3})

	n1, srv1, cli1 := build()
	rigid, err := StreamVideo(n1, srv1, cli1, atm.UBRContract(2e6), video, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	n2, srv2, cli2 := build()
	adaptive, err := StreamVideoAdaptive(n2, srv2, cli2, atm.UBRContract(2e6), video, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.MaxLevel == DegradeNone {
		t.Error("starved path never escalated the degradation ladder")
	}
	if adaptive.Degraded == 0 {
		t.Error("no frames sent at reduced quality on a starved path")
	}
	if adaptive.MissRate() >= rigid.MissRate() {
		t.Errorf("adaptive miss rate %.2f not better than rigid %.2f",
			adaptive.MissRate(), rigid.MissRate())
	}
}

func TestScreenString(t *testing.T) {
	nav, _, _ := buildSchool(t)
	nav.Register(school.Profile{Name: "A"})
	nav.Enroll("ELG5121")
	nav.StartCourse("ELG5121")
	if s := nav.Screen().String(); !strings.Contains(s, "video") {
		t.Errorf("screen rendering:\n%s", s)
	}
}

func TestDescriptorNegotiationBlocksIncapableSites(t *testing.T) {
	// §3.1.2.2: the courseware's descriptor declares an MPEG decode
	// rate; a site below it must refuse the session up front rather
	// than stutter through it.
	build := func(caps *Capabilities) *Navigator {
		store := mediastore.New()
		out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := codec.ASN1().Encode(out.Container)
		store.PutDocument("atm-course", "ATM", "asn1", data)
		(&production.Center{}).ProduceForCourse(out.Container, store)
		sch := school.New("s")
		sch.AddCourse(school.Course{Code: "C1", Name: "ATM", Program: "Eng",
			PlannedSessions: 1, Document: "atm-course"})
		dbMux := transport.NewMux()
		transport.RegisterStore(dbMux, store)
		schMux := transport.NewMux()
		school.RegisterService(schMux, sch)
		n := New(Options{
			DB:     transport.Loopback{H: dbMux},
			School: transport.Loopback{H: schMux},
		})
		if caps != nil {
			n.caps = *caps
		}
		return n
	}

	// A capable site starts fine (defaults).
	capable := build(nil)
	capable.Register(school.Profile{Name: "A"})
	capable.Enroll("C1")
	if err := capable.StartCourse("C1"); err != nil {
		t.Fatalf("capable site refused: %v", err)
	}

	// A 1996 laptop without the decode rate is refused with the reason.
	weak := DefaultCapabilities()
	weak.BitRate = 100_000
	slow := build(&weak)
	slow.Register(school.Profile{Name: "B"})
	slow.Enroll("C1")
	err := slow.StartCourse("C1")
	if err == nil || !strings.Contains(err.Error(), "cannot present") {
		t.Fatalf("under-resourced site started the course: %v", err)
	}

	// A site without an MPEG decoder is refused too.
	noMPEG := DefaultCapabilities()
	noMPEG.Codings = map[media.Coding]bool{media.CodingASCII: true, media.CodingJPEG: true,
		media.CodingWAV: true, media.CodingMIDI: true, media.CodingHTML: true}
	text := build(&noMPEG)
	text.Register(school.Profile{Name: "C"})
	text.Enroll("C1")
	if err := text.StartCourse("C1"); err == nil {
		t.Fatal("codec-less site started the course")
	}
}

// TestFailedOpenKeepsResumePoint: a student in one course who fails to
// open another (its document does not decode) has no course in progress
// any more, so ExitCourse refuses and the first course's stored stop
// position is the one filed when the student last left it.
func TestFailedOpenKeepsResumePoint(t *testing.T) {
	nav, store, sch := buildSchool(t)
	if _, err := store.PutDocument("bad-course", "Broken", "asn1", []byte("not an MHEG container")); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddCourse(school.Course{Code: "BAD100", Name: "Broken", Program: "Engineering", PlannedSessions: 1, Document: "bad-course"}); err != nil {
		t.Fatal(err)
	}
	num, err := nav.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"ELG5121", "BAD100"} {
		if err := nav.Enroll(code); err != nil {
			t.Fatal(err)
		}
	}
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	nav.Clock().RunFor(40 * time.Second)
	if err := nav.ExitCourse(); err != nil {
		t.Fatal(err)
	}
	filed, found, err := sch.GetResume(num, "ELG5121")
	if err != nil || !found || filed.Scene == "" {
		t.Fatalf("resume point after the first visit: %+v %v %v", filed, found, err)
	}

	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("BAD100"); err == nil {
		t.Fatal("opening an undecodable document succeeded")
	}
	if err := nav.ExitCourse(); err == nil {
		t.Error("ExitCourse after a failed open filed a position")
	}
	if pos, _, _ := sch.GetResume(num, "ELG5121"); pos != filed {
		t.Errorf("ELG5121's resume point is %+v after the failed open, want %+v", pos, filed)
	}
}

// TestReplacedEngineFiresNothing opens course A, whose intro video
// has a finish pending on the navigator's clock, then opens course B
// (the same document offered under a second code, so the two engines'
// model and run-time IDs coincide) and runs the clock past A's intro.
// The screen, the current scene and the filed resume point must be B's
// alone: the same as a navigator that only ever opened B.
func TestReplacedEngineFiresNothing(t *testing.T) {
	nav, _, sch := buildSchool(t)
	if err := sch.AddCourse(school.Course{Code: "ELG5199", Name: "ATM Technology II", Program: "Engineering", PlannedSessions: 4, Document: "atm-course"}); err != nil {
		t.Fatal(err)
	}
	num, err := nav.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"ELG5121", "ELG5199"} {
		if err := nav.Enroll(code); err != nil {
			t.Fatal(err)
		}
	}
	// File B's resume point at "quiz", a scene A never reaches by itself.
	if err := nav.StartCourse("ELG5199"); err != nil {
		t.Fatal(err)
	}
	if err := nav.GotoScene("quiz"); err != nil {
		t.Fatal(err)
	}
	if err := nav.ExitCourse(); err != nil {
		t.Fatal(err)
	}

	// The control: a second navigator on the same school opens B only.
	control := New(Options{DB: nav.db.C, School: nav.school.C})
	if err := control.Login(num); err != nil {
		t.Fatal(err)
	}
	if err := control.StartCourse("ELG5199"); err != nil {
		t.Fatal(err)
	}
	control.Clock().RunFor(20 * time.Second)

	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if len(nav.Screen().Playing()) == 0 {
		t.Fatal("course A's intro is not playing")
	}
	if err := nav.StartCourse("ELG5199"); err != nil {
		t.Fatal(err)
	}
	nav.Clock().RunFor(20 * time.Second)

	if got, _ := nav.CurrentScene(); got != "quiz" {
		t.Errorf("current scene %q after A's intro ran out, want B's quiz", got)
	}
	if got, want := nav.Screen().String(), control.Screen().String(); got != want {
		t.Errorf("screen after opening A then B:\n%s\nwant (B only):\n%s", got, want)
	}
	if err := nav.ExitCourse(); err != nil {
		t.Fatal(err)
	}
	if pos, _, _ := sch.GetResume(num, "ELG5199"); pos.Scene != "quiz" {
		t.Errorf("B's resume point is %+v, want scene quiz", pos)
	}
}
