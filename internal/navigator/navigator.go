package navigator

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mits/internal/cache"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/school"
	"mits/internal/sim"
	"mits/internal/transport"
)

// Capabilities describes the presentation site's resources, matched
// against courseware descriptor objects before a session starts — the
// negotiation of §3.1.2.2 ("a correspondence between the resources
// required to present the objects and the resources available to the
// system").
type Capabilities struct {
	BitRate  int // sustainable decode rate, bits/s
	MemoryKB int
	Codings  map[media.Coding]bool
}

// DefaultCapabilities describes the thesis prototype's multimedia PC:
// every coding supported, MPEG-1-class decode rate, 8 MB of buffers.
func DefaultCapabilities() Capabilities {
	return Capabilities{
		BitRate:  2_000_000,
		MemoryKB: 8192,
		Codings: map[media.Coding]bool{
			media.CodingMPEG: true, media.CodingAVI: true,
			media.CodingWAV: true, media.CodingMIDI: true,
			media.CodingJPEG: true, media.CodingASCII: true, media.CodingHTML: true,
		},
	}
}

// Navigator is one student's session with the TeleSchool: the
// application of Figs 5.3–5.7. It owns an MHEG engine fed from the
// courseware database and a virtual screen showing the presentation.
type Navigator struct {
	clock  *sim.Clock
	db     courseDB
	school school.Client
	engine *engine.Engine
	screen *Screen
	caps   Capabilities

	student string // logged-in student number

	courseCode string
	courseDoc  string
	sceneRoots map[string]mheg.ID // scene id → composite model
	rootID     mheg.ID
	current    string                  // current scene id
	sceneStart sim.Time                // when the current scene started
	tree       *mediastore.KeywordNode // the last LibraryTree answer
	treeTag    uint64                  // its tag; 0 = nothing to revalidate
}

// Options wires a navigator to its services.
type Options struct {
	DB     transport.Client
	School transport.Client
	// Capabilities defaults to DefaultCapabilities().
	Capabilities *Capabilities
	// ContentCache, when non-nil, serves the playback path's repeated
	// content fetches (scene replays, shared stills, the engine's
	// resolver) from local memory with singleflight dedup, and keeps
	// each course's decoded, validated document for the next open while
	// the store serves the same bytes. Left nil by the experiments so
	// store read counts stay exact; the deployment entry points
	// (NewRemoteNavigator, cmd/navigator) attach one.
	ContentCache *cache.Cache
}

// New builds a navigator.
func New(opts Options) *Navigator {
	n := &Navigator{
		clock:      sim.NewClock(),
		db:         courseDB{transport.DBClient{C: opts.DB, ContentCache: opts.ContentCache}},
		school:     school.Client{C: opts.School},
		sceneRoots: make(map[string]mheg.ID),
		caps:       DefaultCapabilities(),
	}
	if opts.Capabilities != nil {
		n.caps = *opts.Capabilities
	}
	n.resetEngine(nil)
	return n
}

// resetEngine replaces the engine and clears the screen — the navigator
// starts every course in a clean presentation environment: its form (c)
// objects and the engine's register of form (b) objects "are assumed to
// be extinct whenever the presentation environment vanishes" (§2.2.2.2).
// The decoded form (b) objects themselves are read-only and may outlive
// it in the content cache (loadCourse); the screen is the navigator's
// one display and keeps its item storage from course to course. The
// old engine is retired first: it shares the navigator's clock, and a
// finish or delayed action it left pending would otherwise render into
// the new course's screen and move its current scene.
func (n *Navigator) resetEngine(enc codec.Encoding) {
	if n.engine != nil {
		n.engine.Retire()
	}
	opts := []engine.Option{
		engine.WithResolver(n.db),
		engine.WithRenderer(engine.RendererFunc(n.render)),
	}
	if enc != nil {
		opts = append(opts, engine.WithEncoding(enc))
	}
	n.engine = engine.New(n.clock, opts...)
	if n.screen == nil {
		n.screen = NewScreen(n.engine.Model)
	} else {
		n.screen.reset(n.engine.Model)
	}
}

func (n *Navigator) render(ev engine.Event) {
	n.screen.RenderEvent(ev)
	if ev.Kind == engine.EvRan {
		if obj, ok := n.engine.Model(ev.Model); ok {
			if name := obj.Base().Info.Name; strings.HasPrefix(name, "scene:") || strings.HasPrefix(name, "page:") {
				n.current = name[strings.Index(name, ":")+1:]
				n.sceneStart = n.clock.Now()
			}
		}
	}
}

// Clock exposes the session clock.
func (n *Navigator) Clock() *sim.Clock { return n.clock }

// Screen exposes the virtual display.
func (n *Navigator) Screen() *Screen { return n.screen }

// ---- administration (Figs 5.3, 5.4, 5.6) ----

// errCourseOpen refuses a change of student while a course is open: the
// exit would file the open course's stop position and session under the
// new student's number.
var errCourseOpen = errors.New("navigator: a course is open; exit it first")

// Register creates the student's school record and logs in.
func (n *Navigator) Register(p school.Profile) (string, error) {
	if n.courseCode != "" {
		return "", errCourseOpen
	}
	num, err := n.school.Register(p)
	if err != nil {
		return "", err
	}
	n.student = num
	return num, nil
}

// Login enters the school with an existing student number: one round
// trip that checks the number and fetches nothing of the record.
func (n *Navigator) Login(number string) error {
	if n.courseCode != "" {
		return errCourseOpen
	}
	if err := n.school.Login(number); err != nil {
		return err
	}
	n.student = number
	return nil
}

var errNotLoggedIn = errors.New("navigator: no student logged in")

// UpdateProfile changes the student's personal data (Fig 5.6).
func (n *Navigator) UpdateProfile(p school.Profile) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	return n.school.UpdateProfile(n.student, p)
}

// Programs lists the school's programs.
func (n *Navigator) Programs() ([]string, error) { return n.school.Programs() }

// SchoolStats fetches enrollment statistics — "some statistics about
// the school, the course and the students themselves should also be
// available upon the students demand" (§5.2.1).
func (n *Navigator) SchoolStats() (school.Statistics, error) { return n.school.Stats() }

// CoursesIn lists a program's courses (Fig 5.4d).
func (n *Navigator) CoursesIn(program string) ([]school.Course, error) {
	return n.school.CoursesIn(program)
}

// CourseIntroduction fetches a course's multimedia introduction clip
// ("by selecting a course, then clicking the 'introduction' button, a
// video clip is going to be shown").
func (n *Navigator) CourseIntroduction(code string) (*mediastore.ContentRecord, error) {
	c, _, _, err := n.school.Course(n.student, code)
	if err != nil {
		return nil, err
	}
	if c.IntroRef == "" {
		return nil, fmt.Errorf("navigator: course %s has no introduction", code)
	}
	return n.db.GetContent(c.IntroRef)
}

// Enroll registers the student for a course.
func (n *Navigator) Enroll(code string) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	return n.school.Enroll(n.student, code)
}

// ---- classroom presentation (Fig 5.5) ----

// StartCourse fetches the course record with the student's stored stop
// position, then the course document — or only the store's word that
// the cached image's copy is current — loads it into a fresh engine,
// and begins presentation — resuming at the stop position when one
// exists ("the courseware can automatically start the course
// presentation at the right place when a student enters again").
func (n *Navigator) StartCourse(code string) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	course, pos, resume, err := n.school.Course(n.student, code)
	if err != nil {
		return err
	}
	img := n.imageOf(course.Document)
	var have uint64
	if img != nil {
		have = img.digest
	}
	rec, err := n.db.GetSelectedDoc(course.Document, have)
	if err != nil {
		return fmt.Errorf("navigator: fetch courseware: %w", err)
	}
	enc, err := codec.ByName(rec.Encoding)
	if err != nil {
		return err
	}
	// From here the previous course is gone: a failed open leaves no
	// course in progress, so ExitCourse cannot file its position under
	// the course left behind.
	n.resetEngine(enc)
	n.sceneRoots = make(map[string]mheg.ID)
	n.current, n.courseCode = "", ""
	rootID, err := n.loadCourse(course.Document, img, rec)
	if err != nil {
		return fmt.Errorf("navigator: ingest courseware: %w", err)
	}
	if err := n.negotiate(rootID); err != nil {
		return err
	}
	n.indexScenes(rootID)
	n.courseCode = code
	n.courseDoc = course.Document

	rt, err := n.engine.NewRT(n.rootID, "main")
	if err != nil {
		return err
	}
	// Resume at the stop position the course record came with.
	if resume {
		if sceneID, ok := n.sceneRoots[pos.Scene]; ok {
			// Instantiate everything (NewRT above), then enter the
			// stored scene directly instead of running the root.
			rts := n.engine.RTsOf(sceneID)
			if len(rts) > 0 {
				n.engine.Run(rts[0])
				return nil
			}
		}
	}
	n.engine.Run(rt)
	return nil
}

// courseImage is a course document as the content cache keeps it: the
// digest of the bytes it was decoded from, the validated form (b) root
// they decode to, and the model index its one Load flattened that root
// into. Engines only read their models, so every navigator sharing the
// cache loads the one root.
type courseImage struct {
	digest uint64
	root   mheg.Object
	index  map[mheg.ID]mheg.Object
}

// imageKeyPrefix starts the content-cache key of every course image. No
// content read reaches a key that starts with a NUL (courseDB), so an
// image and a content record never meet under one key.
const imageKeyPrefix = "\x00course-image:"

// imageCostFactor charges a course image to the cache at this multiple
// of its document's size, an upper bound on what decoding the document
// allocated plus the index kept (5.9× for the sample course;
// TestCourseImageCost).
const imageCostFactor = 8

// imageOf is the image of doc in the content cache, or nil. A cached
// value of another type is a miss.
func (n *Navigator) imageOf(doc string) *courseImage {
	if n.db.ContentCache == nil {
		return nil
	}
	v, _ := n.db.ContentCache.Get(imageKeyPrefix + doc)
	img, _ := v.(*courseImage)
	return img
}

// loadCourse registers the fetched course document in the fresh engine
// and returns its root: img's index when the store answered "unchanged"
// to its digest (rec carries no Data), otherwise a fresh decode, imaged
// for the next open once it has loaded.
func (n *Navigator) loadCourse(doc string, img *courseImage, rec *mediastore.DocRecord) (mheg.ID, error) {
	if rec.Data == nil {
		return img.root.Base().ID, n.engine.LoadIndex(img.index)
	}
	root, err := n.engine.Decode(rec.Data)
	if err != nil {
		return mheg.ID{}, err
	}
	if err := n.engine.Load(root); err != nil {
		return mheg.ID{}, err
	}
	if images := n.db.ContentCache; images != nil {
		images.Add(imageKeyPrefix+doc, &courseImage{digest: rec.Digest, root: root, index: n.engine.Index()}, imageCostFactor*int64(len(rec.Data)))
	}
	return root.Base().ID, nil
}

// courseDB is the navigator's database client. Its content reads refuse
// a ref in the course-image key space before it reaches the shared
// cache, where a hit would hand the client an image instead of a record.
type courseDB struct{ transport.DBClient }

func checkContentRef(ref string) error {
	if strings.HasPrefix(ref, "\x00") {
		return fmt.Errorf("navigator: content ref %q starts with a NUL", ref)
	}
	return nil
}

func (d courseDB) GetContent(ref string) (*mediastore.ContentRecord, error) {
	if err := checkContentRef(ref); err != nil {
		return nil, err
	}
	return d.DBClient.GetContent(ref)
}

func (d courseDB) GetContentStream(ref string, sink func([]byte) error) (*mediastore.ContentRecord, error) {
	if err := checkContentRef(ref); err != nil {
		return nil, err
	}
	return d.DBClient.GetContentStream(ref, sink)
}

// FetchContent is the engine's resolver.
func (d courseDB) FetchContent(ref string) ([]byte, error) {
	if err := checkContentRef(ref); err != nil {
		return nil, err
	}
	return d.DBClient.FetchContent(ref)
}

// negotiate checks the courseware's descriptor objects against the
// site's capabilities before presentation (§3.1.2.2): a session only
// starts when every declared resource need is satisfiable.
func (n *Navigator) negotiate(containerID mheg.ID) error {
	obj, ok := n.engine.Model(containerID)
	if !ok {
		return nil
	}
	container, isContainer := obj.(*mheg.Container)
	if !isContainer {
		return nil
	}
	for _, item := range container.Items {
		desc, isDesc := item.(*mheg.Descriptor)
		if !isDesc {
			continue
		}
		if ok, why := desc.Satisfiable(n.caps.BitRate, n.caps.MemoryKB, n.caps.Codings); !ok {
			return fmt.Errorf("navigator: this site cannot present the courseware: %s", why)
		}
	}
	return nil
}

// indexScenes scans the interchanged container for the per-scene
// composites (the compiler names them "scene:<id>" / "page:<id>") and
// the course root, which the compiler appends as the container's last
// composite.
func (n *Navigator) indexScenes(containerID mheg.ID) {
	n.rootID = containerID
	root, ok := n.engine.Model(containerID)
	if !ok {
		return
	}
	container, isContainer := root.(*mheg.Container)
	if !isContainer {
		return // a bare composite was interchanged; run it directly
	}
	for _, item := range container.Items {
		comp, isComp := item.(*mheg.Composite)
		if !isComp {
			continue
		}
		name := comp.Info.Name
		switch {
		case strings.HasPrefix(name, "scene:"):
			n.sceneRoots[strings.TrimPrefix(name, "scene:")] = comp.ID
		case strings.HasPrefix(name, "page:"):
			n.sceneRoots[strings.TrimPrefix(name, "page:")] = comp.ID
		default:
			n.rootID = comp.ID // last plain composite wins: the course root
		}
	}
}

// CurrentScene reports the scene/page the student is in and how long
// they have been there.
func (n *Navigator) CurrentScene() (string, time.Duration) {
	return n.current, n.clock.Now().Sub(n.sceneStart)
}

// Scenes lists the course's scene ids, sorted.
func (n *Navigator) Scenes() []string {
	out := make([]string, 0, len(n.sceneRoots))
	for s := range n.sceneRoots {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Click activates the on-screen button with the given label — the
// navigator's single interaction verb, standing in for the mouse.
func (n *Navigator) Click(label string) error {
	it, ok := n.screen.Find(label)
	if !ok {
		return fmt.Errorf("navigator: no button %q on screen", label)
	}
	if !it.Kind.Clickable() {
		return fmt.Errorf("navigator: %q is %s, not a button or hot word", label, it.Kind)
	}
	n.engine.Select(it.RT)
	return nil
}

// GotoScene jumps the presentation to a scene by id (used by bookmarks).
func (n *Navigator) GotoScene(sceneID string) error {
	id, ok := n.sceneRoots[sceneID]
	if !ok {
		return fmt.Errorf("navigator: unknown scene %q", sceneID)
	}
	if cur, ok := n.sceneRoots[n.current]; ok {
		for _, rt := range n.engine.RTsOf(cur) {
			n.engine.Stop(rt)
		}
	}
	rts := n.engine.RTsOf(id)
	if len(rts) == 0 {
		return fmt.Errorf("navigator: scene %q not instantiated", sceneID)
	}
	n.engine.Run(rts[0])
	return nil
}

// Bookmark saves the current position under a label.
func (n *Navigator) Bookmark(label string) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	scene, at := n.CurrentScene()
	return n.school.AddBookmark(n.student, school.Bookmark{
		Label: label, Course: n.courseCode, Scene: scene, At: at,
	})
}

// ExitCourse stores the stop position and records a session in one
// call ("some important information such as the stop position of the
// courseware presentation is to be automatically stored", §5.4). The
// course closes whatever the school answers, a refusal included, so a
// refused exit cannot keep the next student out; only a transport
// failure (a CallError that carries no answer of the school) leaves it
// open, for the exit to be retried.
func (n *Navigator) ExitCourse() error {
	if n.student == "" || n.courseCode == "" {
		return errors.New("navigator: no course in progress")
	}
	scene, at := n.CurrentScene()
	_, err := n.school.RecordSession(n.student, n.courseCode, scene, at)
	var carrier *transport.CallError
	var answer *transport.RemoteError
	if errors.As(err, &carrier) && !errors.As(err, &answer) {
		return err
	}
	n.courseCode = ""
	return err
}

// ---- library browsing (Fig 5.7) ----

// LibraryTree fetches the library's keyword hierarchy: the tree kept
// from last time while the store confirms it. Shared; read-only.
func (n *Navigator) LibraryTree() (*mediastore.KeywordNode, error) {
	root, tag, err := n.db.GetKeywordTree(n.treeTag)
	if err != nil {
		return nil, err
	}
	if root != nil {
		n.tree, n.treeTag = root, tag
	}
	return n.tree, nil
}

// SearchLibrary finds documents by keyword.
func (n *Navigator) SearchLibrary(keyword string) ([]string, error) {
	return n.db.GetDocByKeyword(keyword)
}

// ReadLibrary fetches a library holding's content by reference.
func (n *Navigator) ReadLibrary(ref string) (*mediastore.ContentRecord, error) {
	return n.db.GetContent(ref)
}

// ReadLibraryStream fetches a library holding as a sequence of bounded
// chunks: sink sees each fragment as it arrives (valid only during the
// callback), so a multi-MB holding renders progressively instead of
// stalling the session behind one monolithic fetch — and the chunks
// interleave fairly with the engine's other calls on the connection.
// The assembled record is returned (and cached whole) like ReadLibrary.
func (n *Navigator) ReadLibraryStream(ref string, sink func([]byte) error) (*mediastore.ContentRecord, error) {
	return n.db.GetContentStream(ref, sink)
}
