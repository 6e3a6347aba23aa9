package media

import (
	"fmt"
	"strings"

	"mits/internal/sim"
)

// jpegBitsPerPixel approximates JPEG compression at typical quality:
// ~1.2 bits per pixel for photographic content.
const jpegBitsPerPixel = 1.2

// EncodeJPEG synthesizes a still image of the given dimensions. Size
// scales with pixel count at a realistic compression ratio.
func EncodeJPEG(width, height int, seed uint64) []byte {
	if width <= 0 || height <= 0 {
		width, height = 640, 480
	}
	n := int(float64(width*height) * jpegBitsPerPixel / 8)
	m := Meta{Width: width, Height: height}
	buf := encodeHeader(CodingJPEG, m, n)
	rng := sim.NewRNG(seed + 2)
	for i := 0; i < n; i++ {
		buf = append(buf, byte(rng.Uint64()))
	}
	return buf
}

// EncodeText wraps plain text in the synthetic container.
func EncodeText(text string) []byte {
	buf := encodeHeader(CodingASCII, Meta{}, len(text))
	return append(buf, text...)
}

// EncodeHTML wraps an HTML document in the synthetic container.
func EncodeHTML(doc string) []byte {
	buf := encodeHeader(CodingHTML, Meta{}, len(doc))
	return append(buf, doc...)
}

// TextContent extracts the text from an encoded ASCII or HTML object.
func TextContent(c Coding, data []byte) (string, error) { return TextPrefix(c, data, len(data)) }

// TextPrefix is TextContent cut to at most n bytes — a caller that shows
// an excerpt copies no more of the text than it shows. The cut may split
// a multi-byte rune.
func TextPrefix(c Coding, data []byte, n int) (string, error) {
	if c != CodingASCII && c != CodingHTML {
		return "", fmt.Errorf("media: %q is not a text coding", c)
	}
	if _, err := Decode(c, data); err != nil {
		return "", err
	}
	// Decode validated the header, but carry the guard locally so this
	// function is panic-free on any input.
	if len(data) < headerSize {
		return "", fmt.Errorf("media: %q object truncated at %d bytes", c, len(data))
	}
	text := data[headerSize:]
	if n < len(text) {
		text = text[:max(n, 0)]
	}
	return string(text), nil
}

// GenerateLecture produces deterministic lecture-note text of roughly
// the requested length, for workload generation.
func GenerateLecture(topic string, approxLen int, seed uint64) string {
	words := []string{
		"the", "network", "cell", "switch", "bandwidth", "multimedia",
		"course", "student", "object", "class", "synchronization",
		"presentation", "interactive", "broadband", "protocol", "layer",
		"virtual", "channel", "quality", "service", "learning", "system",
	}
	rng := sim.NewRNG(seed + 3)
	var b strings.Builder
	fmt.Fprintf(&b, "Lecture notes: %s.\n\n", topic)
	for b.Len() < approxLen {
		n := 8 + rng.Intn(12)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		b.WriteString(".\n")
	}
	return b.String()
}
