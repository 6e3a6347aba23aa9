package mheg

import (
	"fmt"
	"time"

	"mits/internal/media"
)

// This file is the basic MHEG class library of Fig 4.5: convenience
// subclasses derived from the eight standard classes "to provide more
// practical and detailed object instantiation" (§4.4.1). Content
// specializes into media data (video, audio, image, text), non-media
// data (executables, foreign documents) and generic values; links and
// actions get the common patterns used across MITS courseware.

// NewVideoContent builds a video content object referencing the content
// database, with the parameter set a player needs to allocate a window
// and pace playback. This is the library's worked example:
//
//	Media object = "Paris.mpg"; Coding method = MPEG;
//	Size = 64*128; Position = (100,200)   (§4.1.2)
func NewVideoContent(id ID, ref string, size Size, dur time.Duration) *Content {
	c := NewContent(id, media.CodingMPEG, ref)
	c.OrigSize = size
	c.OrigDuration = dur
	return c
}

// NewAudioContent builds an audio content object.
func NewAudioContent(id ID, coding media.Coding, ref string, dur time.Duration, volume int) (*Content, error) {
	if media.ClassOf(coding) != media.ClassAudio {
		return nil, fmt.Errorf("mheg: %q is not an audio coding", coding)
	}
	c := NewContent(id, coding, ref)
	c.OrigDuration = dur
	c.OrigVolume = volume
	return c, nil
}

// NewImageContent builds a still-image content object.
func NewImageContent(id ID, ref string, size Size) *Content {
	c := NewContent(id, media.CodingJPEG, ref)
	c.OrigSize = size
	return c
}

// NewTextContent builds an inline plain-text content object. Text is
// small, so the library embeds it rather than referencing the content
// database.
func NewTextContent(id ID, text string) *Content {
	return NewInlineContent(id, media.CodingASCII, media.EncodeText(text))
}

// NonMediaCoding marks non-media data: "executables or document coded
// in other formats (e.g., HyperODA, HyTime)" (§4.4.1).
const (
	CodingExecutable media.Coding = "EXEC"
	CodingHyTime     media.Coding = "HYTIME"
)

// NewNonMediaContent builds a non-media data content object.
func NewNonMediaContent(id ID, coding media.Coding, data []byte) *Content {
	return NewInlineContent(id, coding, data)
}

// CodingValue marks generic-value content objects.
const CodingValue media.Coding = "VALUE"

// NewGenericValue builds a generic value object holding v, usable "for
// a comparison, an assignment or a presentation" (§4.4.1). The value is
// carried inline, encoded by its String form plus kind tag.
func NewGenericValue(id ID, v Value) *Content {
	c := NewInlineContent(id, CodingValue, encodeValue(v))
	return c
}

func encodeValue(v Value) []byte {
	return []byte(fmt.Sprintf("%d|%s", v.Kind, v.String()))
}

// OnSelect builds the most common courseware link: when the source
// run-time object is selected (clicked), apply the given actions.
func OnSelect(id ID, source ID, effect ...ElementaryAction) *Link {
	return NewLink(id, Condition{
		Source: source,
		Attr:   AttrSelection,
		Op:     OpGreater,
		Value:  IntValue(0),
	}, effect...)
}

// OnFinished builds the reflex-synchronization link of §2.2.2.3:
// "When the audio has finished, display the image".
func OnFinished(id ID, source ID, effect ...ElementaryAction) *Link {
	return NewLink(id, Condition{
		Source: source,
		Attr:   AttrRunning,
		Op:     OpEqual,
		Value:  IntValue(StatusFinished),
	}, effect...)
}

// RunAll builds an action that creates and runs every target in
// parallel — atomic parallel synchronization (Fig 2.6a).
func RunAll(id ID, targets ...ID) *Action {
	a := NewAction(id)
	for _, t := range targets {
		a.Items = append(a.Items, Act(OpNew, t), Act(OpRun, t))
	}
	return a
}

// RunSequence builds an action that runs targets serially using the
// given offsets from activation — elementary synchronization with time
// values T1, T2 (Fig 2.6b).
func RunSequence(id ID, offsets []time.Duration, targets ...ID) (*Action, error) {
	if len(offsets) != len(targets) {
		return nil, fmt.Errorf("mheg: %d offsets for %d targets", len(offsets), len(targets))
	}
	a := NewAction(id)
	for i, t := range targets {
		a.Items = append(a.Items,
			ActAfter(offsets[i], OpNew, t),
			ActAfter(offsets[i], OpRun, t))
	}
	return a, nil
}
