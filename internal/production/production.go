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
	"sync"
	"time"

	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg"
)

// Center is a media production server. It is safe for concurrent use;
// use it through a pointer, never a copy.
type Center struct {
	// SeedBase varies synthetic content across installations while
	// keeping each installation deterministic.
	SeedBase uint64

	mu sync.Mutex
	// made is the digest of what ProduceForCourse last produced for
	// each recipe: one entry per distinct recipe, no bytes.
	made map[recipe]uint64
}

// recipe is everything a produced object is a function of: the encoders
// are pure functions of the reference (which fixes the coding), its
// seed and the hints, defaults applied.
type recipe struct {
	ref   string
	seed  uint64
	hints Hints
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
	// ContentDigest is the digest of what the sink holds at ref, 0 for
	// nothing (mediastore.Store.ContentDigest).
	ContentDigest(ref string) (uint64, error)
}

// ProduceForCourse walks a course's container, produces one media
// object per referenced content object using the author's presentation
// parameters as capture hints, and loads them into the sink, which
// keeps each buffer (nothing here touches it again). A reference is not
// produced again when the sink still holds, byte for byte, what this
// center last produced for the same recipe: the sink's digest of it is
// the one remembered. Anything else — a first publish, a ref another
// writer has overwritten, a changed hint or SeedBase, a sink that cannot
// answer — is produced and put. It returns the references the course
// needs, produced or already held, in container order.
func (c *Center) ProduceForCourse(container *mheg.Container, sink ContentSink) ([]string, error) {
	var refs []string
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
		refs = append(refs, ref)
		hints := Hints{
			Duration: content.OrigDuration,
			Width:    content.OrigSize.W,
			Height:   content.OrigSize.H,
			Topic:    content.Info.Name,
		}
		hints.defaults(CodingFor(ref))
		key := recipe{ref: ref, seed: c.seedFor(ref), hints: hints}
		if made, ok := c.lastMade(key); ok {
			// An error costs a produce, not the publish: the put below
			// reports a sink that is really down.
			if held, err := sink.ContentDigest(ref); err == nil && held == made {
				continue
			}
		}
		mo, err := c.Produce(ref, hints)
		if err != nil {
			return nil, err
		}
		if err := sink.PutContent(ref, string(mo.Coding), mo.Data); err != nil {
			return nil, fmt.Errorf("production: store %q: %w", ref, err)
		}
		c.remember(key, mediastore.Digest(string(mo.Coding), mo.Data))
	}
	return refs, nil
}

// lastMade is the digest of what was last produced for key.
func (c *Center) lastMade(key recipe) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.made[key]
	return d, ok
}

// remember records the digest of what was just produced for key.
func (c *Center) remember(key recipe, digest uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.made == nil {
		c.made = make(map[recipe]uint64)
	}
	c.made[key] = digest
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
