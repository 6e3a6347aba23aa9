package courseware

import (
	"fmt"
	"time"

	"mits/internal/document"
)

// Templates (§4.5.2) pre-package the frequently used courseware object
// classes: "a template for a video object can have parameters such as
// position, size, duration, playback speed, and links. Courseware
// authors just need to specify references to the media objects".

// VideoTemplate instantiates video scene objects with shared layout.
type VideoTemplate struct {
	At       document.Region
	Duration time.Duration
	Channel  string
}

// New fills the template with one media reference.
func (t VideoTemplate) New(id, mediaRef string) document.SceneObject {
	return document.SceneObject{
		ID: id, Kind: document.ObjVideo, Media: mediaRef,
		At: t.At, Duration: t.Duration, Channel: t.Channel,
	}
}

// AudioTemplate instantiates audio scene objects.
type AudioTemplate struct {
	Duration time.Duration
	Volume   int
	Channel  string
}

// New fills the template with one media reference.
func (t AudioTemplate) New(id, mediaRef string) document.SceneObject {
	return document.SceneObject{
		ID: id, Kind: document.ObjAudio, Media: mediaRef,
		Duration: t.Duration, Volume: t.Volume, Channel: t.Channel,
	}
}

// QuizOption is one answer in a quiz template.
type QuizOption struct {
	Label    string
	Correct  bool
	Feedback string
}

// QuizScene builds a complete question scene: the question text, one
// button per option, and feedback text revealed by behaviors — the
// exercise feature of §5.2.1 realized as a template.
func QuizScene(id, question string, options []QuizOption) (*document.Scene, error) {
	if len(options) < 2 {
		return nil, fmt.Errorf("courseware: quiz %q needs at least 2 options", id)
	}
	s := &document.Scene{
		ID:    id,
		Title: "Exercise",
		Objects: []document.SceneObject{
			{ID: id + "-q", Kind: document.ObjText, Text: question,
				At: document.Region{W: 500, H: 60}, Channel: "stage"},
		},
		Timeline: []document.Placement{{Object: id + "-q", Kind: document.PlaceAt}},
	}
	for i, opt := range options {
		btn := fmt.Sprintf("%s-opt%d", id, i)
		fb := fmt.Sprintf("%s-fb%d", id, i)
		feedback := opt.Feedback
		if feedback == "" {
			if opt.Correct {
				feedback = "Correct!"
			} else {
				feedback = "Not quite — try again."
			}
		}
		s.Objects = append(s.Objects,
			document.SceneObject{ID: btn, Kind: document.ObjButton, Text: opt.Label,
				At: document.Region{Y: 80 + 40*i, W: 200, H: 30}, Channel: "controls"},
			document.SceneObject{ID: fb, Kind: document.ObjText, Text: feedback,
				At: document.Region{X: 220, Y: 80 + 40*i, W: 300, H: 30}, Channel: "stage"},
		)
		s.Behaviors = append(s.Behaviors, document.Behavior{
			Conditions: []document.BCondition{{Object: btn, Event: document.BEvClicked}},
			Actions:    []document.BAction{{Verb: document.BStart, Targets: []string{fb}}},
		})
	}
	return s, nil
}
