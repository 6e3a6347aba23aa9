package document

import (
	"fmt"
	"time"
)

// SceneObject is one perceptible object in a scene, with the layout
// parameters of the interactive multimedia document model's layout
// structure (§4.3.3).
type SceneObject struct {
	ID       string
	Media    string // media object reference; empty for pure UI objects
	Kind     ObjectKind
	Text     string // label for buttons/text rendered inline
	At       Region
	Duration time.Duration // 0 = unknown/static
	Volume   int
	Channel  string // logical presentation space (§4.3.3)
}

// ObjectKind classifies scene objects.
type ObjectKind int

// Scene object kinds.
const (
	ObjVideo ObjectKind = iota
	ObjAudio
	ObjImage
	ObjText
	ObjButton
)

var objKindNames = [...]string{"video", "audio", "image", "text", "button"}

func (k ObjectKind) String() string {
	if k < 0 || int(k) >= len(objKindNames) {
		return fmt.Sprintf("ObjectKind(%d)", int(k))
	}
	return objKindNames[k]
}

// Presentable reports whether the object carries media content (as
// opposed to interaction widgets).
func (k ObjectKind) Presentable() bool { return k != ObjButton }

// PlaceKind is a temporal placement relation in a scene's time-line
// structure.
type PlaceKind int

// Placement relations.
const (
	PlaceAt    PlaceKind = iota // absolute offset from scene start
	PlaceWith                   // offset from another object's start
	PlaceAfter                  // offset from another object's end
)

// Placement is one entry of the time-line structure (Fig 4.4b).
type Placement struct {
	Object string
	Kind   PlaceKind
	Ref    string // other object for PlaceWith / PlaceAfter
	Offset time.Duration
}

// BCondition is one condition of a behavior: a trigger on an object's
// state, e.g. "stop-button clicked" or "text1 stopped" (Fig 4.4c).
type BCondition struct {
	Object string
	Event  BEvent
	// Value qualifies BEvSelected for answer-checking behaviors.
	Value string
}

// BEvent enumerates the observable author-level events.
type BEvent int

// Behavior trigger events.
const (
	BEvClicked  BEvent = iota // user clicked the object
	BEvFinished               // playback completed
	BEvStopped                // playback stopped (by user or action)
	BEvSelected               // selection state changed to Value
)

var bEventNames = [...]string{"clicked", "finished", "stopped", "selected"}

func (e BEvent) String() string {
	if e < 0 || int(e) >= len(bEventNames) {
		return fmt.Sprintf("BEvent(%d)", int(e))
	}
	return bEventNames[e]
}

// BVerb enumerates author-level effect verbs.
type BVerb int

// Behavior action verbs.
const (
	BStart BVerb = iota
	BStop
	BPause
	BResume
	BShow
	BHide
	BGoto // jump to another scene
)

var bVerbNames = [...]string{"start", "stop", "pause", "resume", "show", "hide", "goto"}

func (v BVerb) String() string {
	if v < 0 || int(v) >= len(bVerbNames) {
		return fmt.Sprintf("BVerb(%d)", int(v))
	}
	return bVerbNames[v]
}

// BAction is one effect of a behavior.
type BAction struct {
	Verb    BVerb
	Targets []string // scene object ids, or a scene id for BGoto
}

// Behavior is one row of the behavior structure: a condition set and an
// action set (Fig 4.4c). The first condition is the trigger; the rest
// are additional conditions evaluated against current state.
type Behavior struct {
	Conditions []BCondition
	Actions    []BAction
}

// Scene groups "a certain number of objects presented in the same space
// for a certain period of time" (§4.3.3).
type Scene struct {
	ID        string
	Title     string
	Objects   []SceneObject
	Timeline  []Placement
	Behaviors []Behavior
}

// Object finds a scene object by id.
func (s *Scene) Object(id string) (SceneObject, bool) {
	for _, o := range s.Objects {
		if o.ID == id {
			return o, true
		}
	}
	return SceneObject{}, false
}

// Section is a node of the logical structure: sections divide into
// subsections and eventually scenes (Fig 4.4a).
type Section struct {
	Title       string
	Subsections []*Section
	Scenes      []*Scene
}

// IMDoc is an interactive multimedia document: a pre-defined rendering
// scenario plus interactive behaviors — the dynamic-interaction model
// of §4.3.3.
type IMDoc struct {
	Title    string
	Sections []*Section
}

// AllScenes flattens the section hierarchy into presentation order
// (simple serial playback order absent user interference).
func (d *IMDoc) AllScenes() []*Scene {
	var out []*Scene
	var walk func(*Section)
	walk = func(s *Section) {
		out = append(out, s.Scenes...)
		for _, sub := range s.Subsections {
			walk(sub)
		}
	}
	for _, s := range d.Sections {
		walk(s)
	}
	return out
}

// Validate checks the document: unique scene and object ids, placements
// and behaviors that reference existing objects, buttons not used as
// media, and goto targets that exist.
func (d *IMDoc) Validate() error {
	if d.Title == "" {
		return fmt.Errorf("document: interactive document has no title")
	}
	scenes := d.AllScenes()
	if len(scenes) == 0 {
		return fmt.Errorf("document %q: no scenes", d.Title)
	}
	sceneIDs := make(map[string]bool, len(scenes))
	for _, s := range scenes {
		if s.ID == "" {
			return fmt.Errorf("document %q: scene with empty id", d.Title)
		}
		if sceneIDs[s.ID] {
			return fmt.Errorf("document %q: duplicate scene id %q", d.Title, s.ID)
		}
		sceneIDs[s.ID] = true
	}
	for _, s := range scenes {
		if err := d.validateScene(s, sceneIDs); err != nil {
			return fmt.Errorf("document %q: %w", d.Title, err)
		}
	}
	return nil
}

func (d *IMDoc) validateScene(s *Scene, sceneIDs map[string]bool) error {
	objs := make(map[string]SceneObject, len(s.Objects))
	for _, o := range s.Objects {
		if o.ID == "" {
			return fmt.Errorf("scene %q: object with empty id", s.ID)
		}
		if _, dup := objs[o.ID]; dup {
			return fmt.Errorf("scene %q: duplicate object id %q", s.ID, o.ID)
		}
		if o.Kind.Presentable() && o.Kind != ObjText && o.Media == "" {
			return fmt.Errorf("scene %q: %v object %q has no media reference", s.ID, o.Kind, o.ID)
		}
		if o.Kind == ObjButton && o.Text == "" {
			return fmt.Errorf("scene %q: button %q has no label", s.ID, o.ID)
		}
		if o.Duration < 0 {
			return fmt.Errorf("scene %q: object %q has negative duration", s.ID, o.ID)
		}
		objs[o.ID] = o
	}
	placed := make(map[string]bool, len(s.Timeline))
	for _, p := range s.Timeline {
		if _, ok := objs[p.Object]; !ok {
			return fmt.Errorf("scene %q: timeline places unknown object %q", s.ID, p.Object)
		}
		if placed[p.Object] {
			return fmt.Errorf("scene %q: object %q placed twice", s.ID, p.Object)
		}
		placed[p.Object] = true
		if p.Kind != PlaceAt {
			if _, ok := objs[p.Ref]; !ok {
				return fmt.Errorf("scene %q: object %q placed relative to unknown %q", s.ID, p.Object, p.Ref)
			}
			if p.Ref == p.Object {
				return fmt.Errorf("scene %q: object %q placed relative to itself", s.ID, p.Object)
			}
		}
		if p.Offset < 0 {
			return fmt.Errorf("scene %q: object %q has negative placement offset", s.ID, p.Object)
		}
	}
	for i, b := range s.Behaviors {
		if len(b.Conditions) == 0 {
			return fmt.Errorf("scene %q: behavior %d has no conditions", s.ID, i)
		}
		if len(b.Actions) == 0 {
			return fmt.Errorf("scene %q: behavior %d has no actions", s.ID, i)
		}
		for _, c := range b.Conditions {
			if _, ok := objs[c.Object]; !ok {
				return fmt.Errorf("scene %q: behavior %d watches unknown object %q", s.ID, i, c.Object)
			}
		}
		for _, a := range b.Actions {
			if len(a.Targets) == 0 {
				return fmt.Errorf("scene %q: behavior %d action %v has no targets", s.ID, i, a.Verb)
			}
			for _, tgt := range a.Targets {
				if a.Verb == BGoto {
					if !sceneIDs[tgt] {
						return fmt.Errorf("scene %q: behavior %d goto unknown scene %q", s.ID, i, tgt)
					}
				} else if _, ok := objs[tgt]; !ok {
					return fmt.Errorf("scene %q: behavior %d action %v targets unknown object %q", s.ID, i, a.Verb, tgt)
				}
			}
		}
	}
	return nil
}
