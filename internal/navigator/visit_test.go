package navigator

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mits/internal/cache"
	"mits/internal/school"
	"mits/internal/transport"
)

// TestOpenWithoutStoredPositionStartsAtRoot: a student with no stored
// stop position, and one whose stored scene the course does not have,
// both start where the course root starts: the intro.
func TestOpenWithoutStoredPositionStartsAtRoot(t *testing.T) {
	nav, _, sch := buildSchool(t)
	num, err := nav.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nav.Enroll("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	root := nav.Screen().String()
	if scene, _ := nav.CurrentScene(); scene != "intro" {
		t.Fatalf("first open is in %q, want intro", scene)
	}

	if err := sch.SetResume(num, "ELG5121", school.Position{Scene: "no-such-scene", At: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if scene, _ := nav.CurrentScene(); scene != "intro" {
		t.Errorf("an open resuming at a scene the course lacks is in %q, want intro", scene)
	}
	if got := nav.Screen().String(); got != root {
		t.Errorf("screen after a dangling resume point:\n%s\nwant the root's:\n%s", got, root)
	}
}

// TestOpenUnknownCourse: an unknown course code fails with the school's
// ErrNotFound and leaves no course in progress: ExitCourse refuses, and
// no stop position or session is filed.
func TestOpenUnknownCourse(t *testing.T) {
	nav, _, sch := buildSchool(t)
	num, err := nav.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nav.Enroll("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("NOPE101"); !errors.Is(err, school.ErrNotFound) {
		t.Fatalf("opening an unknown course: %v, want school.ErrNotFound", err)
	}
	if err := nav.ExitCourse(); err == nil {
		t.Error("ExitCourse after opening an unknown course succeeded")
	}
	if _, found, _ := sch.GetResume(num, "NOPE101"); found {
		t.Error("a stop position was filed under the unknown course")
	}
	st, err := sch.Student(num)
	if err != nil {
		t.Fatal(err)
	}
	if st.Courses[0].SessionsDone != 0 {
		t.Errorf("a session was recorded: %+v", st.Courses)
	}
}

// TestExitWithoutEnrollment: a student who opens a course they never
// enrolled in and leaves it gets the stop position stored and the
// school's "not enrolled" answer, and the course stays in progress.
func TestExitWithoutEnrollment(t *testing.T) {
	nav, _, sch := buildSchool(t)
	num, err := nav.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	nav.Clock().RunFor(9 * time.Second) // into "cells"
	scene, at := nav.CurrentScene()
	err = nav.ExitCourse()
	if err == nil || !strings.Contains(err.Error(), "not enrolled") {
		t.Fatalf("ExitCourse without enrollment: %v, want the not-enrolled error", err)
	}
	pos, found, err := sch.GetResume(num, "ELG5121")
	if err != nil || !found || pos != (school.Position{Scene: scene, At: at}) {
		t.Errorf("stored position %+v found=%v err=%v, want %s at %v", pos, found, err, scene, at)
	}
	if nav.courseCode != "ELG5121" {
		t.Errorf("course in progress %q after the refused exit, want ELG5121", nav.courseCode)
	}
}

// TestChangeOfStudentWaitsForTheExit: on a shared lab PC, a login or a
// registration while a course is open is refused. Taken, it would make
// the exit file the open course's stop position under the new number.
// Once the first student exits, the next one logs in.
func TestChangeOfStudentWaitsForTheExit(t *testing.T) {
	nav, _, sch := buildSchool(t)
	a, err := nav.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sch.Register(school.Profile{Name: "B"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nav.Enroll("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	nav.Clock().RunFor(9 * time.Second) // into "cells"
	scene, at := nav.CurrentScene()
	if _, err := nav.Register(school.Profile{Name: "C"}); err == nil {
		t.Error("a registration while a course is open was taken")
	}
	if err := nav.Login(b); err == nil {
		t.Error("a login while a course is open was taken")
	}
	if err := nav.ExitCourse(); err != nil {
		t.Errorf("exit: %v", err)
	}
	if st, err := sch.Student(b); err != nil || len(st.Resume) != 0 || len(st.Courses) != 0 {
		t.Errorf("B's record after A's exit: %+v, %v; want no stop position and no course", st, err)
	}
	if st, err := sch.Student(a); err != nil || st.Resume["ELG5121"] != (school.Position{Scene: scene, At: at}) ||
		st.Courses[0].SessionsDone != 1 {
		t.Errorf("A's record after the exit: %+v, %v; want %s at %v and one session", st, err, scene, at)
	}
	if stats := sch.Stats(); stats.Students != 2 {
		t.Errorf("%d students after the refused registration, want 2", stats.Students)
	}
	if err := nav.Login(b); err != nil {
		t.Fatalf("login after the exit: %v", err)
	}
	if nav.student != b {
		t.Errorf("logged in as %q after the exit, want %q", nav.student, b)
	}
}

// TestConcurrentVisitsOfOneStudent: eight lab PCs visit one course as
// one student at once, each leaving from its own scene. The school
// counts every exit as a session, and the stop position it keeps is one
// a PC filed. Run with -race.
func TestConcurrentVisitsOfOneStudent(t *testing.T) {
	const pcs, visits = 8, 5
	_, store, sch := buildSchool(t)
	c := cache.New("navigator-test", 1<<30)
	first := attachNavigator(store, sch, c)
	num, err := first.Register(school.Profile{Name: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Enroll("ELG5121"); err != nil {
		t.Fatal(err)
	}
	scenes := []string{"intro", "cells", "switching", "quiz"}

	var mu sync.Mutex
	var filed []school.Position
	var wg sync.WaitGroup
	for pc := 0; pc < pcs; pc++ {
		nav := attachNavigator(store, sch, c)
		if err := nav.Login(num); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(pc int, nav *Navigator) {
			defer wg.Done()
			for v := 0; v < visits; v++ {
				if err := nav.StartCourse("ELG5121"); err != nil {
					t.Error(err)
					return
				}
				if err := nav.GotoScene(scenes[pc%len(scenes)]); err != nil {
					t.Error(err)
					return
				}
				nav.Clock().RunFor(time.Duration(pc*visits+v) * time.Millisecond)
				scene, at := nav.CurrentScene()
				mu.Lock()
				filed = append(filed, school.Position{Scene: scene, At: at})
				mu.Unlock()
				if err := nav.ExitCourse(); err != nil {
					t.Error(err)
					return
				}
			}
		}(pc, nav)
	}
	wg.Wait()

	st, err := sch.Student(num)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Courses[0].SessionsDone; got != pcs*visits {
		t.Errorf("SessionsDone %d, want one per exit: %d", got, pcs*visits)
	}
	if last := st.Resume["ELG5121"]; !slices.Contains(filed, last) {
		t.Errorf("stored position %+v was never filed (filed: %v)", last, filed)
	}
}

// callLog is a transport.Client that records the method of every call
// into a log it may share with other callLogs, so one log orders the
// calls of a navigator's two services.
type callLog struct {
	next transport.Client
	log  *[]string
}

func (l callLog) Call(method string, payload []byte) ([]byte, error) {
	*l.log = append(*l.log, method)
	return l.next.Call(method, payload) //mits:allow deadlinecheck a test log adds no wait of its own; whatever bounds next bounds this
}

func (l callLog) Close() error { return nil }

// loggedNavigator is attachNavigator with both services behind one
// callLog.
func loggedNavigator(t *testing.T, c *cache.Cache) (*Navigator, *[]string) {
	t.Helper()
	nav, _, _ := buildCachedSchool(t, c)
	log := new([]string)
	return New(Options{
		DB:           callLog{next: nav.db.C, log: log},
		School:       callLog{next: nav.school.C, log: log},
		ContentCache: c,
	}), log
}

// TestVisitRoundTrips counts a visit's calls. A returning student's
// login is one school call; an open is one school call and one store
// call, then only the engine's content fetches when the course image is
// cold; an exit is one school call.
func TestVisitRoundTrips(t *testing.T) {
	nav, log := loggedNavigator(t, cache.New("navigator-test", 1<<30))
	enrolled(t, nav, "A", "ELG5121")
	open := []string{school.MethodCourse, transport.MethodGetDoc}

	*log = (*log)[:0]
	if err := nav.Login(nav.student); err != nil {
		t.Fatal(err)
	}
	if want := []string{school.MethodLogin}; !slices.Equal(*log, want) {
		t.Errorf("a login called %v, want %v", *log, want)
	}

	*log = (*log)[:0]
	if err := nav.StartCourse("ELG5121"); err != nil {
		t.Fatal(err)
	}
	if cold := *log; len(cold) < len(open) || !slices.Equal(cold[:len(open)], open) ||
		slices.ContainsFunc(cold[len(open):], func(m string) bool { return m != transport.MethodGetContent }) {
		t.Errorf("a cold open called %v, want %v then only %s", cold, open, transport.MethodGetContent)
	}
	for visit := 1; visit <= 2; visit++ {
		nav.Clock().RunFor(9 * time.Second)
		*log = (*log)[:0]
		if err := nav.ExitCourse(); err != nil {
			t.Fatal(err)
		}
		if want := []string{school.MethodRecordSession}; !slices.Equal(*log, want) {
			t.Errorf("exit %d called %v, want %v", visit, *log, want)
		}
		*log = (*log)[:0]
		if err := nav.StartCourse("ELG5121"); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(*log, open) {
			t.Errorf("warm open %d called %v, want %v", visit, *log, open)
		}
	}
	if scene, _ := nav.CurrentScene(); scene != "cells" {
		t.Errorf("the warm open resumed in %q, want cells", scene)
	}
}
