package experiments

import (
	"fmt"
	"strings"
	"time"

	"mits/internal/document"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/production"
	"mits/internal/school"
	"mits/internal/sim"
	"mits/internal/transport"
)

// E9Hypermedia reproduces Fig 4.3: static-interaction navigation over
// the hypermedia document model — a student random-walking the page
// graph through compiled MHEG links, including the quiz branch.
func E9Hypermedia() (*Report, error) {
	doc := document.SampleHyperCourse()
	out, err := compiledHyper()
	if err != nil {
		return nil, err
	}
	clock := sim.NewClock()
	current := ""
	// Track the current page by watching page composites run.
	visits := make(map[string]int)
	var e *engine.Engine
	e = engine.New(clock, engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) {
		if ev.Kind != engine.EvRan {
			return
		}
		if obj, ok := e.Model(ev.Model); ok {
			if name := obj.Base().Info.Name; strings.HasPrefix(name, "page:") {
				current = strings.TrimPrefix(name, "page:")
				visits[current]++
			}
		}
	})))
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}
	if _, err := e.Ingest(data); err != nil {
		return nil, err
	}
	rt, err := e.NewRT(out.Root, "main")
	if err != nil {
		return nil, err
	}
	e.Run(rt)

	// Random walk: follow a random outgoing link of the current page.
	rng := sim.NewRNG(9)
	const steps = 500
	taken := 0
	for i := 0; i < steps; i++ {
		choices := doc.Choices(current)
		if len(choices) == 0 {
			break
		}
		pick := choices[rng.Intn(len(choices))]
		condID := out.Objects[current+"/"+pick.Condition]
		rts := e.RTsOf(condID)
		if len(rts) == 0 {
			return nil, fmt.Errorf("condition item %s not instantiated", pick.Condition)
		}
		before := current
		e.Select(rts[0])
		if current == before {
			return nil, fmt.Errorf("navigation %s --%s--> did not move", before, pick.Condition)
		}
		taken++
	}

	r := &Report{
		ID: "E9", Figure: "Fig 4.3", Title: fmt.Sprintf("Hypermedia model: %d-step random navigation walk", taken),
		Header: []string{"page", "visits"},
		Notes: []string{
			fmt.Sprintf("%d links traversed, links fired: %d", taken, e.Stats.LinksFired),
		},
	}
	allVisited := true
	for _, p := range doc.Pages {
		if visits[p.ID] == 0 {
			allVisited = false
		}
		r.Rows = append(r.Rows, []string{p.ID, fmt.Sprint(visits[p.ID])})
	}
	r.Pass = taken == steps && allVisited
	return r, nil
}

// E10Scenario reproduces Fig 4.4: dynamic interaction in the
// interactive multimedia document — the pre-defined timeline vs the
// same playback with the student's choice firing early.
func E10Scenario() (*Report, error) {
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	play := func(clickAt time.Duration) (imageAt, finishAt time.Duration, err error) {
		clock := sim.NewClock()
		var imageRan sim.Time = -1
		var e *engine.Engine
		e = engine.New(clock, engine.WithRenderer(engine.RendererFunc(func(ev engine.Event) {
			if ev.Kind == engine.EvRan && ev.Model == out.Objects["cells/image1"] && imageRan < 0 {
				imageRan = ev.At
			}
		})))
		data, err := codec.ASN1().Encode(out.Container)
		if err != nil {
			return 0, 0, err
		}
		if _, err := e.Ingest(data); err != nil {
			return 0, 0, err
		}
		rt, err := e.NewRT(out.Root, "main")
		if err != nil {
			return 0, 0, err
		}
		e.Run(rt)
		if clickAt > 0 {
			clock.At(sim.Zero.Add(clickAt), func(sim.Time) {
				rts := e.RTsOf(out.Objects["cells/choice1"])
				if len(rts) > 0 {
					e.Select(rts[0])
				}
			})
		}
		end := clock.Run()
		return imageRan.Duration(), end.Duration(), nil
	}

	// Passive: intro 8s + text1 20s ⇒ image at 28s.
	passiveImg, passiveEnd, err := play(0)
	if err != nil {
		return nil, err
	}
	// Interactive: click choice1 at 12s (4s into text1) ⇒ image at 12s.
	activeImg, activeEnd, err := play(12 * time.Second)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E10", Figure: "Fig 4.4", Title: "Interactive multimedia document: pre-defined scenario vs user choice",
		Header: []string{"run", "image1 appears", "clock drained at"},
		Rows: [][]string{
			{"passive (scenario only)", dur(passiveImg), dur(passiveEnd)},
			{"choice1 clicked at 12s", dur(activeImg), dur(activeEnd)},
		},
		Notes: []string{"Fig 4.4b: \"users can click the button 'choice1' at any time between t1 and t2 to display image1 earlier\""},
		Pass:  passiveImg == 28*time.Second && activeImg == 12*time.Second,
	}
	return r, nil
}

// E13Mediastore reproduces Figs 5.1–5.2: the MEDIABASE storage
// platform — bulk store/retrieve of mixed-media documents plus keyword
// queries.
func E13Mediastore() (*Report, error) {
	store := mediastore.New()
	center := &production.Center{}
	const courses = 20
	var put, contentBytes int64

	for i := 0; i < courses; i++ {
		name := fmt.Sprintf("course-%02d", i)
		doc := document.SampleATMCourse()
		doc.Title = fmt.Sprintf("Course %d", i)
		out, err := compileAs(doc, name)
		if err != nil {
			return nil, err
		}
		data, err := codec.ASN1().Encode(out.Container)
		if err != nil {
			return nil, err
		}
		if _, err := store.PutDocument(name, doc.Title, "asn1", data,
			fmt.Sprintf("faculty-%d/networking", i%4)); err != nil {
			return nil, err
		}
		put += int64(len(data))
		refs, err := center.ProduceForCourse(out.Container, store)
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			rec, err := store.GetContent(ref)
			if err != nil {
				return nil, err
			}
			contentBytes += int64(len(rec.Data))
		}
	}

	for i := 0; i < courses; i++ {
		if _, err := store.GetDocument(fmt.Sprintf("course-%02d", i)); err != nil {
			return nil, err
		}
	}

	tree, _ := store.Keywords()
	var leaves int
	tree.Walk(func(string, *mediastore.KeywordNode) { leaves++ })
	byKw := store.DocsByKeyword("faculty-1")

	docs, contents := store.Sizes()
	r := &Report{
		ID: "E13", Figure: "Figs 5.1–5.2", Title: fmt.Sprintf("MEDIABASE platform: %d courses stored and queried", courses),
		Header: []string{"operation", "volume"},
		Rows: [][]string{
			{"store documents + produce media", fmt.Sprintf("%d docs (%s) + %d content objects (%s)", docs, bytesStr(put), contents, bytesStr(contentBytes))},
			{"retrieve all documents", fmt.Sprintf("%d fetches", courses)},
			{"keyword tree + query", fmt.Sprintf("%d tree nodes, %d hits for faculty-1", leaves, len(byKw))},
		},
		Pass: docs == courses && len(byKw) == courses/4,
	}
	return r, nil
}

// E14Session reproduces Figs 5.3–5.7: the complete sample learning
// session of §5.4 — registration, course registration with intro clip,
// classroom presentation, profile update, library browsing, exit with
// stored stop position, and resumed re-entry.
func E14Session() (*Report, error) {
	// Assemble a full school.
	store := mediastore.New()
	sch := school.New("MIRL TeleSchool")
	center := &production.Center{}
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}
	if _, err := store.PutDocument("atm-course", "ATM Technology", "asn1", data, "network/atm"); err != nil {
		return nil, err
	}
	if _, err := center.ProduceForCourse(out.Container, store); err != nil {
		return nil, err
	}
	if _, err := center.StockLibrary(store); err != nil {
		return nil, err
	}
	intro, err := center.Produce("store/intro.mpg", production.Hints{Duration: 15 * time.Second, Topic: "introduction"})
	if err != nil {
		return nil, err
	}
	if err := store.PutContent(intro.ID, string(intro.Coding), intro.Data); err != nil {
		return nil, err
	}
	sch.AddCourse(school.Course{Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
		PlannedSessions: 4, Document: "atm-course", IntroRef: "store/intro.mpg"})

	dbMux := transport.NewMux()
	transport.RegisterStore(dbMux, store)
	schMux := transport.NewMux()
	school.RegisterService(schMux, sch)
	nav := navigatorNew(dbMux, schMux)

	r := &Report{
		ID: "E14", Figure: "Figs 5.3–5.7", Title: "Sample learning session (§5.4)",
		Header: []string{"step", "screen/outcome"},
		Pass:   true,
	}
	step := func(name string, f func() (string, error)) {
		outcome, err := f()
		if err != nil {
			outcome = "ERROR: " + err.Error()
			r.Pass = false
		}
		r.Rows = append(r.Rows, []string{name, outcome})
	}

	var num string
	step("register (Fig 5.4a-c)", func() (string, error) {
		var err error
		num, err = nav.Register(school.Profile{Name: "Ruiping Wang", Address: "Ottawa", Email: "rw@uottawa.ca"})
		return "student number " + num, err
	})
	step("course registration (Fig 5.4d)", func() (string, error) {
		progs, err := nav.Programs()
		if err != nil {
			return "", err
		}
		courses, err := nav.CoursesIn(progs[0])
		if err != nil {
			return "", err
		}
		intro, err := nav.CourseIntroduction(courses[0].Code)
		if err != nil {
			return "", err
		}
		meta, err := media.Decode(media.CodingMPEG, intro.Data)
		if err != nil {
			return "", err
		}
		if err := nav.Enroll(courses[0].Code); err != nil {
			return "", err
		}
		return fmt.Sprintf("enrolled in %s after %v intro clip", courses[0].Code, meta.Duration), nil
	})
	step("classroom presentation (Fig 5.5)", func() (string, error) {
		if err := nav.StartCourse("ELG5121"); err != nil {
			return "", err
		}
		nav.Clock().RunFor(9 * time.Second)
		scene, _ := nav.CurrentScene()
		playing := len(nav.Screen().Playing())
		if scene != "cells" {
			return "", fmt.Errorf("expected cells scene, in %q", scene)
		}
		return fmt.Sprintf("scene %q, %d media playing", scene, playing), nil
	})
	step("interact: show diagram early", func() (string, error) {
		if err := nav.Click("Show cell diagram"); err != nil {
			return "", err
		}
		return "image1 revealed by choice1", nil
	})
	step("update profile (Fig 5.6)", func() (string, error) {
		return "address changed", nav.UpdateProfile(school.Profile{Name: "Ruiping Wang", Address: "Toronto"})
	})
	step("browse library (Fig 5.7)", func() (string, error) {
		tree, err := nav.LibraryTree()
		if err != nil {
			return "", err
		}
		rec, err := nav.ReadLibrary("library/atm-handbook.html")
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d top-level keywords; read %s (%s)", len(tree.Children), "atm-handbook", bytesStr(int64(len(rec.Data)))), nil
	})
	step("bookmark + exit", func() (string, error) {
		if err := nav.Bookmark("cell formats"); err != nil {
			return "", err
		}
		if err := nav.ExitCourse(); err != nil {
			return "", err
		}
		st, err := sch.Student(num)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("stop position %q stored, %d session recorded", st.Resume["ELG5121"].Scene, st.Courses[0].SessionsDone), nil
	})
	step("re-enter: resume", func() (string, error) {
		if err := nav.StartCourse("ELG5121"); err != nil {
			return "", err
		}
		scene, _ := nav.CurrentScene()
		if scene != "cells" {
			return "", fmt.Errorf("resumed in %q, want cells", scene)
		}
		return "presentation resumed in scene cells", nil
	})
	return r, nil
}

// E15MediaFormats reproduces Table 5.1 and §5.2.2's storage numbers:
// one minute of each playback format.
func E15MediaFormats() (*Report, error) {
	wav := media.EncodeWAV(time.Minute, 0, 0)
	midi := media.EncodeMIDI(time.Minute)
	avi := media.EncodeAVI(media.VideoParams{Duration: time.Minute, Seed: 15})
	mpeg := media.EncodeMPEG(media.VideoParams{Duration: time.Minute, Seed: 15})

	row := func(name, ext string, data []byte) []string {
		return []string{name, ext, bytesStr(int64(len(data))),
			fmt.Sprintf("%.3f", float64(len(data))/float64(len(wav)))}
	}
	r := &Report{
		ID: "E15", Figure: "Table 5.1", Title: "Multimedia file formats: one minute of each",
		Header: []string{"format", "extension", "bytes/min", "vs WAV"},
		Rows: [][]string{
			row("Waveform-audio", ".WAV", wav),
			row("MIDI", ".MID", midi),
			row("Audio-Video Interleaved", ".AVI", avi),
			row("MPEG video (reference)", ".MPG", mpeg),
		},
		Notes: []string{
			"§5.2.2: WAV ≈ 1 MB/min; MIDI ≈ 5 KB/min",
		},
	}
	wavMB := float64(len(wav)) / (1 << 20)
	midiKB := float64(len(midi)) / 1024
	r.Pass = wavMB > 0.8 && wavMB < 1.2 && midiKB > 4 && midiKB < 6.5 &&
		len(avi) > len(mpeg)
	return r, nil
}
