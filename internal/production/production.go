// Package production implements the MITS media production center
// (§3.4.1): "by using video and audio capturing devices such as video
// cameras, microphones, and PC-VCRs, the media production server
// provides all the data needed for the creation of a multimedia
// courseware".
//
// Capture hardware is replaced by the synthetic codecs of
// internal/media: given a courseware's content references and the
// presentation parameters its author specified (duration, size), the
// center produces bitstreams with matching characteristics and loads
// them into the content database.
package production

import (
	"fmt"
	"strings"
	"time"

	"mits/internal/media"
	"mits/internal/mheg"
)

// Center is a media production server.
type Center struct {
	// SeedBase varies synthetic content across installations while
	// keeping each installation deterministic.
	SeedBase uint64
}

// Hints carries the presentation parameters production must match.
type Hints struct {
	Duration time.Duration
	Width    int
	Height   int
	// Topic seeds generated text.
	Topic string
}

func (h *Hints) defaults(coding media.Coding) {
	if h.Duration == 0 && media.TimeBased(coding) {
		h.Duration = 10 * time.Second
	}
	if h.Width == 0 {
		h.Width, h.Height = 352, 240
	}
	if h.Topic == "" {
		h.Topic = "course material"
	}
}

// seedFor derives a per-reference seed.
func (c *Center) seedFor(ref string) uint64 {
	var h uint64 = 14695981039346656037 ^ c.SeedBase
	for i := 0; i < len(ref); i++ {
		h ^= uint64(ref[i])
		h *= 1099511628211
	}
	return h
}

// CodingFor infers the coding of a reference from its extension.
func CodingFor(ref string) media.Coding {
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
	default:
		return media.CodingASCII
	}
}

// Produce synthesizes one media object for a content reference.
func (c *Center) Produce(ref string, hints Hints) (*media.Object, error) {
	if ref == "" {
		return nil, fmt.Errorf("production: empty content reference")
	}
	coding := CodingFor(ref)
	hints.defaults(coding)
	seed := c.seedFor(ref)
	var data []byte
	switch coding {
	case media.CodingMPEG:
		data = media.EncodeMPEG(media.VideoParams{
			Duration: hints.Duration, Width: hints.Width, Height: hints.Height, Seed: seed,
		})
	case media.CodingAVI:
		data = media.EncodeAVI(media.VideoParams{
			Duration: hints.Duration, Width: hints.Width, Height: hints.Height, Seed: seed,
		})
	case media.CodingWAV:
		data = media.EncodeWAV(hints.Duration, media.DefaultWAVRate, 1)
	case media.CodingMIDI:
		data = media.EncodeMIDI(hints.Duration)
	case media.CodingJPEG:
		data = media.EncodeJPEG(hints.Width, hints.Height, seed)
	case media.CodingHTML:
		body := media.GenerateLecture(hints.Topic, 2000, seed)
		data = media.EncodeHTML(fmt.Sprintf("<html><head><title>%s</title></head><body><pre>%s</pre></body></html>", hints.Topic, body))
	default:
		data = media.EncodeText(media.GenerateLecture(hints.Topic, 1500, seed))
	}
	meta, err := media.Decode(coding, data)
	if err != nil {
		return nil, fmt.Errorf("production: self-check of %q failed: %w", ref, err)
	}
	return &media.Object{
		ID:     ref,
		Name:   hints.Topic,
		Coding: coding,
		Meta:   meta,
		Data:   data,
	}, nil
}

// ContentSink receives produced objects — the content database, local
// or behind the network client.
type ContentSink interface {
	PutContent(ref, coding string, data []byte, keywords ...string) error
}

// ProduceForCourse walks a course's container, produces one media
// object per referenced content object using the author's presentation
// parameters as capture hints, and loads them into the sink, which
// keeps each buffer (nothing here touches it again). It returns the
// references produced, in container order.
func (c *Center) ProduceForCourse(container *mheg.Container, sink ContentSink) ([]string, error) {
	var produced []string
	seen := make(map[string]bool)
	for _, obj := range container.Items {
		content, ok := obj.(*mheg.Content)
		if !ok || !content.Referenced() {
			continue
		}
		ref := content.ContentRef
		if seen[ref] {
			continue
		}
		seen[ref] = true
		mo, err := c.Produce(ref, Hints{
			Duration: content.OrigDuration,
			Width:    content.OrigSize.W,
			Height:   content.OrigSize.H,
			Topic:    content.Info.Name,
		})
		if err != nil {
			return nil, err
		}
		if err := sink.PutContent(ref, string(mo.Coding), mo.Data); err != nil {
			return nil, fmt.Errorf("production: store %q: %w", ref, err)
		}
		produced = append(produced, ref)
	}
	return produced, nil
}

// LibraryDoc is one library holding of §5.2.1's library browsing:
// "textbooks, reference books, and other related documents".
type LibraryDoc struct {
	Name     string
	Title    string
	Keywords []string
	Ref      string
}

// StockLibrary produces a small digital library of HTML documents for
// the navigator's library browser.
func (c *Center) StockLibrary(sink ContentSink) ([]LibraryDoc, error) {
	docs := []LibraryDoc{
		{Name: "atm-handbook", Title: "The ATM Handbook", Keywords: []string{"network/atm", "reference"}, Ref: "library/atm-handbook.html"},
		{Name: "bisdn-primer", Title: "B-ISDN Primer", Keywords: []string{"network/bisdn", "reference"}, Ref: "library/bisdn-primer.html"},
		{Name: "mheg-standard", Title: "MHEG Standard Notes", Keywords: []string{"multimedia/mheg", "standard"}, Ref: "library/mheg-standard.html"},
		{Name: "teaching-architectures", Title: "Six Teaching Architectures", Keywords: []string{"education/theory"}, Ref: "library/teaching-architectures.html"},
		{Name: "mpeg-overview", Title: "MPEG Coding Overview", Keywords: []string{"multimedia/mpeg", "standard"}, Ref: "library/mpeg-overview.html"},
	}
	for _, d := range docs {
		obj, err := c.Produce(d.Ref, Hints{Topic: d.Title})
		if err != nil {
			return nil, err
		}
		if err := sink.PutContent(d.Ref, string(obj.Coding), obj.Data, d.Keywords...); err != nil {
			return nil, err
		}
	}
	return docs, nil
}
