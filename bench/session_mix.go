package bench

import (
	"fmt"
	"time"

	"mits"
	"mits/internal/document"
	"mits/internal/navigator"
	"mits/internal/school"
)

// session_mix: the whole student session, end to end. `clients` lab PCs
// (one long-lived navigator and 64 MB cache each) serve a pool of
// students; each loop is one visit: register or log in, list a
// program's courses, search the library, enroll on the first visit to a
// course, open the courseware, play nine seconds of it, stream the
// course introduction, bookmark and exit; the next visit resumes. The
// course is drawn Zipf s=1.0 from 24 published through mits.Publisher,
// whose introductions (24 x 3.75 MB) do not fit the cache, so it evicts.
const (
	courseCount    = 24
	courseZipf     = 1.0
	coursePrograms = 4
	studentsPerPC  = 64
	playFor        = 9 * time.Second
)

type course struct {
	code, program, keyword, doc string
	intro                       *clip
}

var sessionMix = workloadDef{
	name: SessionMix,
	plan: func(seed uint64, clients int) *plan {
		p := &plan{Workload: SessionMix, Seed: seed}
		z := newZipf(courseCount, courseZipf)
		for c := 0; c < clients; c++ {
			r := newRNG(mix(seed, "labpc", c))
			ops := make([]planOp, 1<<12)
			for i := range ops {
				ops[i] = planOp{Kind: obsSession, A: uint32(r.intn(studentsPerPC)), B: uint32(z.draw(r))}
			}
			p.Actors = append(p.Actors, ops)
		}
		return p
	},
	build: func(seed uint64, clients int, tr *tracer) (*site, error) {
		sys := mits.NewSystem("mitsbench")
		sys.Production.SeedBase = seed
		pub := sys.Publisher()
		courses := make([]*course, courseCount)
		for i := range courses {
			c := &course{
				code:    fmt.Sprintf("MIT%03d", i),
				program: fmt.Sprintf("Program %d", i%coursePrograms),
				keyword: fmt.Sprintf("topic/t%02d", i),
				doc:     fmt.Sprintf("course-%02d", i),
			}
			doc := document.SampleATMCourse()
			doc.Title = "Course " + c.code
			if err := doc.Validate(); err != nil {
				return nil, err
			}
			if _, err := pub.PublishInteractive(doc, mits.CourseInfo{
				Code: c.code, Name: doc.Title, Program: c.program, DocName: c.doc, Keywords: []string{c.keyword},
			}); err != nil {
				return nil, err
			}
			listed, err := sys.School.Course(c.code)
			if err != nil {
				return nil, err
			}
			intro, err := sys.Store.GetContentBorrow(listed.IntroRef)
			if err != nil {
				return nil, err
			}
			if c.intro, err = newClip(listed.IntroRef, intro.Data); err != nil {
				return nil, err
			}
			courses[i] = c
		}
		st, err := openStore(sys, clients, tr)
		if err != nil {
			return nil, err
		}
		s := &site{close: st.close}
		for c := 0; c < clients; c++ {
			a, nav := st.navigator(true)
			pc := &labPC{nav: nav, courses: courses, students: make([]student, studentsPerPC)}
			s.actors = append(s.actors, a)
			s.run = append(s.run, func(a *actor, ops []planOp, stop <-chan struct{}) {
				loop(stop, func() {
					op := a.next(ops)
					start := time.Now()
					if pc.session(a, int(op.A), pc.courses[op.B]) == nil {
						a.rec.observe(obsSession, time.Since(start))
						a.rec.credit(1)
					}
				})
			})
		}
		return s, nil
	},
	metrics: func(w *window, into map[string]float64) {
		into["sessions_per_s"] = w.rate()
		into["open_ms_p50"] = w.pct(50, opOpen) / 1e3
		admin := []opKind{opRegister, opLogin, opCourses, opEnroll, opBookmark, opExit}
		into["admin_us_p50"] = w.pct(50, admin...)
		into["admin_us_p95"] = w.pct(95, admin...)
		chunkGaps(w, into)
		w.common(into)
	},
}

// student is what a lab PC remembers about one of its students between
// visits: the number the school assigned and the courses enrolled in.
type student struct {
	number   string
	enrolled map[string]bool
}

type labPC struct {
	nav      *navigator.Navigator
	courses  []*course
	students []student
	player   player
}

// session is one visit of student st to course c. It stops at the first
// failed step; every step is already in the tally.
func (pc *labPC) session(a *actor, st int, c *course) error {
	who := &pc.students[st]
	nav := pc.nav
	if who.number == "" {
		if err := a.do(opRegister, "", noDue, func() error {
			num, err := nav.Register(school.Profile{Name: fmt.Sprintf("Student %d", st), Email: "student@example.edu"})
			who.number, who.enrolled = num, map[string]bool{}
			return err
		}); err != nil {
			return err
		}
	} else if err := a.do(opLogin, "", noDue, func() error { return nav.Login(who.number) }); err != nil {
		return err
	}
	if err := a.do(opCourses, "", noDue, func() error {
		cs, err := nav.CoursesIn(c.program)
		if err == nil && len(cs) != courseCount/coursePrograms {
			err = a.mismatch("courses in %s: %d, want %d", c.program, len(cs), courseCount/coursePrograms)
		}
		return err
	}); err != nil {
		return err
	}
	if err := a.do(opSearch, "", noDue, func() error {
		names, err := nav.SearchLibrary(c.keyword)
		if err == nil && (len(names) != 1 || names[0] != c.doc) {
			err = a.mismatch("search %s: %v, want [%s]", c.keyword, names, c.doc)
		}
		return err
	}); err != nil {
		return err
	}
	if !who.enrolled[c.code] {
		if err := a.do(opEnroll, "", noDue, func() error { return nav.Enroll(c.code) }); err != nil {
			return err
		}
		who.enrolled[c.code] = true
	}
	if err := a.do(opOpen, "", noDue, func() error { return nav.StartCourse(c.code) }); err != nil {
		return err
	}
	if err := a.do(opPlay, "", noDue, func() error {
		nav.Clock().RunFor(playFor)
		if scene, _ := nav.CurrentScene(); scene == "" {
			return a.mismatch("%s: no scene on screen after %v", c.code, playFor)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := a.stream(nav, c.intro, &pc.player); err != nil {
		return err
	}
	if err := a.do(opBookmark, "", noDue, func() error { return nav.Bookmark("visit") }); err != nil {
		return err
	}
	return a.do(opExit, "", noDue, nav.ExitCourse)
}
