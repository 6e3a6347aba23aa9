package courseware

import (
	"fmt"
	"slices"
	"strings"

	"mits/internal/document"
	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/sched"
)

// Compiled is the result of mapping a document onto the MHEG object
// layer (Fig 4.2): a container ready for interchange plus the manifest
// the navigator uses to address the pieces.
type Compiled struct {
	App  string
	Root mheg.ID // the course composite: run this to present the course
	// Container packs every object of the course for interchange.
	Container *mheg.Container
	// Scenes/Pages maps document scene (or page) ids to their composite.
	Scenes map[string]mheg.ID
	// Objects maps "sceneID/objectID" (or "pageID/itemID") to content
	// object ids.
	Objects map[string]mheg.ID
	// AdvanceButtons maps scene ids to the compiler-injected Continue
	// button content id (absent for the last scene).
	AdvanceButtons map[string]mheg.ID
	// MediaRefs lists every content-database reference the course uses.
	MediaRefs []string
	// Descriptor summarizes resource needs for session negotiation.
	Descriptor *mheg.Descriptor
}

// codingForRef infers the media coding from a content reference's
// extension, falling back to the object kind's default.
func codingForRef(ref string, kind document.ObjectKind) media.Coding {
	switch {
	case strings.HasSuffix(ref, ".mpg"), strings.HasSuffix(ref, ".mpeg"):
		return media.CodingMPEG
	case strings.HasSuffix(ref, ".avi"):
		return media.CodingAVI
	case strings.HasSuffix(ref, ".wav"):
		return media.CodingWAV
	case strings.HasSuffix(ref, ".mid"), strings.HasSuffix(ref, ".midi"):
		return media.CodingMIDI
	case strings.HasSuffix(ref, ".jpg"), strings.HasSuffix(ref, ".jpeg"):
		return media.CodingJPEG
	case strings.HasSuffix(ref, ".html"), strings.HasSuffix(ref, ".htm"):
		return media.CodingHTML
	case strings.HasSuffix(ref, ".txt"):
		return media.CodingASCII
	}
	switch kind {
	case document.ObjVideo:
		return media.CodingMPEG
	case document.ObjAudio:
		return media.CodingWAV
	case document.ObjImage:
		return media.CodingJPEG
	default:
		return media.CodingASCII
	}
}

// resourceNeeds estimates descriptor resource requirements per coding.
var resourceNeeds = map[media.Coding]mheg.ResourceNeed{
	media.CodingMPEG: {Coding: media.CodingMPEG, BitRate: 1500000, MemoryKB: 2048},
	media.CodingAVI:  {Coding: media.CodingAVI, BitRate: 1650000, MemoryKB: 2048},
	media.CodingWAV:  {Coding: media.CodingWAV, BitRate: 176400, MemoryKB: 128},
	media.CodingMIDI: {Coding: media.CodingMIDI, BitRate: 5600, MemoryKB: 32},
	media.CodingJPEG: {Coding: media.CodingJPEG, BitRate: 0, MemoryKB: 512},
}

// imdCompiler carries state while compiling an interactive multimedia
// document.
type imdCompiler struct {
	ids     *IDAllocator
	out     *Compiled
	objects []mheg.Object
	codings map[media.Coding]bool
}

// CompileIMD maps an interactive multimedia document onto MHEG objects.
// Each scene becomes a composite whose components are its objects
// (socketed at instantiation), whose start-up action realizes the
// time-line structure, and whose links realize the behavior structure.
// Scenes are wired together with Continue buttons and auto-advance
// links; the course root's start-up runs the first scene.
func CompileIMD(doc *document.IMDoc, app string) (*Compiled, error) {
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	c := &imdCompiler{
		ids: NewIDAllocator(app, 1),
		out: &Compiled{
			App:            app,
			Scenes:         make(map[string]mheg.ID),
			Objects:        make(map[string]mheg.ID),
			AdvanceButtons: make(map[string]mheg.ID),
		},
		codings: make(map[media.Coding]bool),
	}
	scenes := doc.AllScenes()
	// Pre-allocate scene composite ids so behaviors can goto forward.
	for _, s := range scenes {
		c.out.Scenes[s.ID] = c.ids.Next()
	}
	for i, s := range scenes {
		var next *document.Scene
		if i+1 < len(scenes) {
			next = scenes[i+1]
		}
		if err := c.compileScene(s, next); err != nil {
			return nil, err
		}
	}

	// Course root: start-up runs the first scene composite.
	rootID := c.ids.Next()
	startup := mheg.NewAction(c.ids.Next(), mheg.Act(mheg.OpRun, c.out.Scenes[scenes[0].ID]))
	root := mheg.NewComposite(rootID)
	root.Info.Name = doc.Title
	for _, s := range scenes {
		root.Components = append(root.Components, c.out.Scenes[s.ID])
	}
	root.StartUp = startup.ID
	c.objects = append(c.objects, startup, root)
	c.out.Root = rootID

	c.finish(doc.Title)
	return c.out, nil
}

// finish assembles the descriptor and container.
func (c *imdCompiler) finish(title string) {
	desc := mheg.NewDescriptor(c.ids.Next(), c.out.Root)
	codings := make([]media.Coding, 0, len(c.codings))
	for coding := range c.codings {
		codings = append(codings, coding)
	}
	slices.Sort(codings) // one document compiles to one encoding, and so one digest
	for _, coding := range codings {
		if need, ok := resourceNeeds[coding]; ok {
			desc.Needs = append(desc.Needs, need)
		}
	}
	desc.ReadMe = fmt.Sprintf("courseware %q compiled by MITS", title)
	c.objects = append(c.objects, desc)
	c.out.Descriptor = desc
	container := mheg.NewContainer(c.ids.Next(), c.objects...)
	container.Info.Name = title
	c.out.Container = container
}

func (c *imdCompiler) compileScene(s *document.Scene, next *document.Scene) error {
	if len(s.Timeline) == 0 {
		return fmt.Errorf("courseware: scene %q has no timeline; place at least one object", s.ID)
	}
	objIDs := make(map[string]mheg.ID, len(s.Objects))
	var components []mheg.ID
	for _, o := range s.Objects {
		id := c.ids.Next()
		objIDs[o.ID] = id
		c.out.Objects[s.ID+"/"+o.ID] = id
		content, err := c.contentFor(id, o)
		if err != nil {
			return fmt.Errorf("courseware: scene %q object %q: %w", s.ID, o.ID, err)
		}
		c.objects = append(c.objects, content)
		components = append(components, id)
	}

	// Time-line structure → start-up action + event-driven links.
	tl := sched.NewTimeline()
	durations := make(map[string]mheg.Duration, len(s.Objects))
	for _, o := range s.Objects {
		durations[o.ID] = o.Duration
	}
	for _, p := range s.Timeline {
		var err error
		switch p.Kind {
		case document.PlaceAt:
			err = tl.At(objIDs[p.Object], p.Offset, durations[p.Object])
		case document.PlaceWith:
			err = tl.With(objIDs[p.Object], objIDs[p.Ref], p.Offset, durations[p.Object])
		case document.PlaceAfter:
			err = tl.After(objIDs[p.Object], objIDs[p.Ref], p.Offset, durations[p.Object])
		}
		if err != nil {
			return fmt.Errorf("courseware: scene %q: %w", s.ID, err)
		}
	}
	base := c.ids.Reserve(uint32(1 + len(s.Timeline)))
	startup, tlLinks, err := tl.Compile(c.ids.App, base)
	if err != nil {
		return fmt.Errorf("courseware: scene %q: %w", s.ID, err)
	}
	// Interaction widgets are not on the timeline but must be live
	// while the scene is: run every button at scene start.
	for _, o := range s.Objects {
		if o.Kind == document.ObjButton {
			startup.Items = append(startup.Items, mheg.Act(mheg.OpRun, objIDs[o.ID]))
		}
	}
	c.objects = append(c.objects, startup)
	linkIDs := make([]mheg.ID, 0, len(tlLinks))
	for _, l := range tlLinks {
		c.objects = append(c.objects, l)
		linkIDs = append(linkIDs, l.ID)
	}

	// Behavior structure → conditional links.
	for i, b := range s.Behaviors {
		link, err := c.compileBehavior(s, b, objIDs)
		if err != nil {
			return fmt.Errorf("courseware: scene %q behavior %d: %w", s.ID, i, err)
		}
		c.objects = append(c.objects, link)
		linkIDs = append(linkIDs, link.ID)
	}

	// Scene wiring: an injected Continue button plus, when the timeline
	// fully resolves, an auto-advance link on the last-ending object.
	if next != nil {
		advance := []mheg.ElementaryAction{
			mheg.Act(mheg.OpStop, c.out.Scenes[s.ID]),
			mheg.Act(mheg.OpRun, c.out.Scenes[next.ID]),
		}
		btnID := c.ids.Next()
		btn := mheg.NewTextContent(btnID, "Continue")
		btn.Info.Name = "button:Continue"
		btn.Channel = "controls"
		startup.Items = append(startup.Items, mheg.Act(mheg.OpRun, btnID))
		c.objects = append(c.objects, btn)
		c.out.AdvanceButtons[s.ID] = btnID
		components = append(components, btnID)
		btnLink := mheg.OnSelect(c.ids.Next(), btnID, advance...)
		c.objects = append(c.objects, btnLink)
		linkIDs = append(linkIDs, btnLink.ID)

		if last, ok := c.lastResolved(s, tl, objIDs); ok {
			auto := mheg.OnFinished(c.ids.Next(), last, advance...)
			c.objects = append(c.objects, auto)
			linkIDs = append(linkIDs, auto.ID)
		}
	}

	comp := mheg.NewComposite(c.out.Scenes[s.ID], components...)
	comp.Info.Name = "scene:" + s.ID
	comp.Links = linkIDs
	comp.StartUp = startup.ID
	c.objects = append(c.objects, comp)
	return nil
}

// lastResolved picks the timed object whose playback ends the scene,
// provided every placed object resolved to a fixed offset (otherwise
// the scene's end is interaction-driven and auto-advance would cut it
// short).
func (c *imdCompiler) lastResolved(s *document.Scene, tl *sched.Timeline, objIDs map[string]mheg.ID) (mheg.ID, bool) {
	span := tl.Span()
	if span == 0 {
		return mheg.ID{}, false
	}
	for _, p := range s.Timeline {
		start, ok := tl.Start(objIDs[p.Object])
		if !ok {
			return mheg.ID{}, false
		}
		// An untimed presentable object revealed at (or after) the end
		// of the timed material — like Fig 4.4b's image1 — needs the
		// student's own dwell time; the scene must not auto-advance.
		o, _ := s.Object(p.Object)
		if o.Duration == 0 && o.Kind.Presentable() && start >= span {
			return mheg.ID{}, false
		}
	}
	for _, p := range s.Timeline {
		o, _ := s.Object(p.Object)
		if o.Duration == 0 {
			continue
		}
		start, _ := tl.Start(objIDs[p.Object])
		if start+o.Duration == span {
			return objIDs[p.Object], true
		}
	}
	return mheg.ID{}, false
}

func (c *imdCompiler) contentFor(id mheg.ID, o document.SceneObject) (*mheg.Content, error) {
	switch o.Kind {
	case document.ObjText:
		t := mheg.NewTextContent(id, o.Text)
		t.Info.Name = "text:" + o.ID
		t.OrigDuration = o.Duration
		t.OrigSize = mheg.Size{W: o.At.W, H: o.At.H}
		t.Channel = o.Channel
		c.codings[media.CodingASCII] = true
		return t, nil
	case document.ObjButton:
		b := mheg.NewTextContent(id, o.Text)
		b.Info.Name = "button:" + o.Text
		b.Channel = o.Channel
		c.codings[media.CodingASCII] = true
		return b, nil
	case document.ObjVideo, document.ObjAudio, document.ObjImage:
		coding := codingForRef(o.Media, o.Kind)
		content := mheg.NewContent(id, coding, o.Media)
		content.OrigDuration = o.Duration
		content.OrigSize = mheg.Size{W: o.At.W, H: o.At.H}
		content.OrigVolume = o.Volume
		content.Channel = o.Channel
		content.Info.Name = o.Kind.String() + ":" + o.ID
		c.codings[coding] = true
		c.out.MediaRefs = append(c.out.MediaRefs, o.Media)
		return content, nil
	default:
		return nil, fmt.Errorf("unknown object kind %v", o.Kind)
	}
}

func (c *imdCompiler) compileBehavior(s *document.Scene, b document.Behavior, objIDs map[string]mheg.ID) (*mheg.Link, error) {
	trigger, err := conditionFor(b.Conditions[0], objIDs)
	if err != nil {
		return nil, err
	}
	var additional []mheg.Condition
	for _, bc := range b.Conditions[1:] {
		cond, err := conditionFor(bc, objIDs)
		if err != nil {
			return nil, err
		}
		additional = append(additional, cond)
	}
	var items []mheg.ElementaryAction
	for _, a := range b.Actions {
		for _, tgt := range a.Targets {
			switch a.Verb {
			case document.BStart:
				items = append(items, mheg.Act(mheg.OpRun, objIDs[tgt]))
			case document.BStop:
				items = append(items, mheg.Act(mheg.OpStop, objIDs[tgt]))
			case document.BPause:
				items = append(items, mheg.Act(mheg.OpPause, objIDs[tgt]))
			case document.BResume:
				items = append(items, mheg.Act(mheg.OpResume, objIDs[tgt]))
			case document.BShow:
				items = append(items, mheg.Act(mheg.OpSetVisible, objIDs[tgt], mheg.BoolValue(true)))
			case document.BHide:
				items = append(items, mheg.Act(mheg.OpSetVisible, objIDs[tgt], mheg.BoolValue(false)))
			case document.BGoto:
				items = append(items,
					mheg.Act(mheg.OpStop, c.out.Scenes[s.ID]),
					mheg.Act(mheg.OpRun, c.out.Scenes[tgt]))
			default:
				return nil, fmt.Errorf("unknown behavior verb %v", a.Verb)
			}
		}
	}
	l := mheg.NewLink(c.ids.Next(), trigger, items...)
	l.Additional = additional
	return l, nil
}

func conditionFor(bc document.BCondition, objIDs map[string]mheg.ID) (mheg.Condition, error) {
	src, ok := objIDs[bc.Object]
	if !ok {
		return mheg.Condition{}, fmt.Errorf("condition on unknown object %q", bc.Object)
	}
	switch bc.Event {
	case document.BEvClicked:
		return mheg.Condition{Source: src, Attr: mheg.AttrSelection, Op: mheg.OpGreater, Value: mheg.IntValue(0)}, nil
	case document.BEvFinished:
		return mheg.Condition{Source: src, Attr: mheg.AttrRunning, Op: mheg.OpEqual, Value: mheg.IntValue(mheg.StatusFinished)}, nil
	case document.BEvStopped:
		return mheg.Condition{Source: src, Attr: mheg.AttrRunning, Op: mheg.OpEqual, Value: mheg.IntValue(mheg.StatusNotRunning)}, nil
	case document.BEvSelected:
		return mheg.Condition{Source: src, Attr: mheg.AttrSelectionState, Op: mheg.OpEqual, Value: mheg.StringValue(bc.Value)}, nil
	default:
		return mheg.Condition{}, fmt.Errorf("unknown behavior event %v", bc.Event)
	}
}
