// Command producer is the media production center's batch tool
// (§3.4.1): given a compiled courseware container, it synthesizes every
// referenced media object (matching the durations and sizes the author
// specified) and stores them, together with the course document, in a
// database image that mitsd can serve.
//
//	author -sample atm -o atm.mheg
//	producer -course atm.mheg -encoding asn1 -name atm-course -db school.db
//	mitsd -db school.db -no-samples
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/production"
)

func main() {
	course := flag.String("course", "", "compiled courseware file (from cmd/author)")
	encoding := flag.String("encoding", "asn1", "encoding of the courseware file")
	name := flag.String("name", "", "document name to store the course under")
	title := flag.String("title", "", "course title (defaults to the container's name)")
	keywords := flag.String("keywords", "", "comma-separated keyword paths")
	dbPath := flag.String("db", "school.db", "database image to create or extend")
	library := flag.Bool("library", false, "also stock the reference library")
	flag.Parse()

	if *course == "" || *name == "" {
		fail(fmt.Errorf("need -course <file> and -name <document name>"))
	}
	data, err := os.ReadFile(*course)
	if err != nil {
		fail(err)
	}
	enc, err := codec.ByName(*encoding)
	if err != nil {
		fail(err)
	}
	obj, err := enc.Decode(data)
	if err != nil {
		fail(fmt.Errorf("decode courseware: %w", err))
	}
	container, ok := obj.(*mheg.Container)
	if !ok {
		fail(fmt.Errorf("courseware file holds a %T, want a container", obj))
	}

	store := mediastore.New()
	if loaded, err := mediastore.Load(*dbPath); err == nil {
		store = loaded
		fmt.Fprintf(os.Stderr, "extending database image %s\n", *dbPath)
	} else if !errors.Is(err, fs.ErrNotExist) {
		// Saving over an image this build cannot read would destroy it.
		fail(fmt.Errorf("read database image %s: %w", *dbPath, err))
	}

	center := &production.Center{}
	produced, err := center.ProduceForCourse(container, store)
	if err != nil {
		fail(err)
	}
	var mediaBytes int
	for _, ref := range produced {
		rec, err := store.GetContentBorrow(ref)
		if err != nil {
			fail(err)
		}
		mediaBytes += len(rec.Data)
		fmt.Fprintf(os.Stderr, "  produced %-40s %8d bytes (%s)\n", ref, len(rec.Data), rec.Coding)
	}

	docTitle := *title
	if docTitle == "" {
		docTitle = container.Info.Name
	}
	var kws []string
	if *keywords != "" {
		kws = splitComma(*keywords)
	}
	version, err := store.PutDocument(*name, docTitle, *encoding, data, kws...)
	if err != nil {
		fail(err)
	}
	if *library {
		if _, err := center.StockLibrary(store); err != nil {
			fail(err)
		}
	}
	if err := store.Save(*dbPath); err != nil {
		fail(err)
	}
	docs, contents := store.Sizes()
	fmt.Fprintf(os.Stderr, "stored %q v%d; produced %d media objects (%d bytes); image %s now holds %d docs, %d content objects\n",
		*name, version, len(produced), mediaBytes, *dbPath, docs, contents)
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if part := s[start:i]; part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "producer:", err)
	os.Exit(1)
}
