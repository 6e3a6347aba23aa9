package school

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"mits/internal/lint/leaktest"
	"time"

	"mits/internal/transport"
)

func testSchool(t *testing.T) *School {
	t.Helper()
	s := New("MIRL TeleSchool")
	courses := []Course{
		{Code: "ELG5121", Name: "Multimedia Communications", Program: "Engineering", PlannedSessions: 12, Document: "atm-course"},
		{Code: "ELG5374", Name: "Computer Networks", Program: "Engineering", PlannedSessions: 10, Document: "net-course"},
		{Code: "HIS1100", Name: "Art History", Program: "Humanities", PlannedSessions: 8, Document: "art-course"},
	}
	for _, c := range courses {
		if err := s.AddCourse(c); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRegistrationFlow(t *testing.T) {
	s := testSchool(t)
	num, err := s.Register(Profile{Name: "Ruiping Wang", Email: "rw@uottawa.ca"})
	if err != nil {
		t.Fatal(err)
	}
	if num == "" {
		t.Fatal("no student number assigned")
	}
	num2, _ := s.Register(Profile{Name: "Second Student"})
	if num2 == num {
		t.Error("duplicate student numbers")
	}
	st, err := s.Student(num)
	if err != nil || st.Profile.Name != "Ruiping Wang" {
		t.Fatalf("student %+v err=%v", st, err)
	}
	if _, err := s.Student("000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost student err=%v", err)
	}
	if err := s.Login(num); err != nil {
		t.Errorf("login: %v", err)
	}
	if err := s.Login("000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost login err=%v", err)
	}
	if _, err := s.Register(Profile{}); err == nil {
		t.Error("nameless registration accepted")
	}
}

func TestProfileUpdate(t *testing.T) {
	s := testSchool(t)
	num, _ := s.Register(Profile{Name: "A", Address: "old address"})
	if err := s.UpdateProfile(num, Profile{Name: "A", Address: "new address"}); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Student(num)
	if st.Profile.Address != "new address" {
		t.Error("profile not updated")
	}
	if err := s.UpdateProfile(num, Profile{}); err == nil {
		t.Error("nameless profile accepted")
	}
	if err := s.UpdateProfile("zzz", Profile{Name: "x"}); !errors.Is(err, ErrNotFound) {
		t.Error("update of ghost student")
	}
}

func TestCatalogue(t *testing.T) {
	s := testSchool(t)
	progs := s.Programs()
	if len(progs) != 2 || progs[0] != "Engineering" || progs[1] != "Humanities" {
		t.Errorf("programs %v", progs)
	}
	eng := s.CoursesIn("Engineering")
	if len(eng) != 2 || eng[0].Code != "ELG5121" {
		t.Errorf("engineering courses %+v", eng)
	}
	if got := s.CoursesIn("Astrology"); len(got) != 0 {
		t.Errorf("phantom program courses %v", got)
	}
	c, err := s.Course("ELG5121")
	if err != nil || c.Document != "atm-course" {
		t.Errorf("course %+v err=%v", c, err)
	}
	if _, err := s.Course("ZZZ"); !errors.Is(err, ErrNotFound) {
		t.Error("ghost course found")
	}
	if err := s.AddCourse(Course{Code: "ELG5121", Name: "dup", Program: "x", PlannedSessions: 1}); err == nil {
		t.Error("duplicate course accepted")
	}
	if err := s.AddCourse(Course{Code: "X"}); err == nil {
		t.Error("incomplete course accepted")
	}
	if err := s.AddCourse(Course{Code: "X", Name: "n", Program: "p"}); err == nil {
		t.Error("course without sessions accepted")
	}
}

func TestEnrollmentAndProgress(t *testing.T) {
	s := testSchool(t)
	num, _ := s.Register(Profile{Name: "A"})
	if err := s.Enroll(num, "ELG5121"); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll(num, "ELG5121"); err == nil {
		t.Error("double enrollment accepted")
	}
	if err := s.Enroll(num, "ZZZ"); !errors.Is(err, ErrNotFound) {
		t.Error("enrollment in ghost course")
	}
	if err := s.Enroll("zzz", "ELG5121"); !errors.Is(err, ErrNotFound) {
		t.Error("ghost student enrolled")
	}
	st, _ := s.Student(num)
	if len(st.Courses) != 1 {
		t.Errorf("registered for %d courses", len(st.Courses))
	}

	// 12 sessions complete the course.
	var reg Registration
	for i := 0; i < 12; i++ {
		var err error
		reg, err = s.RecordSession(num, "ELG5121", Position{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reg.Completed || reg.SessionsDone != 12 {
		t.Errorf("registration after 12 sessions: %+v", reg)
	}
	if _, err := s.RecordSession(num, "ELG5374", Position{}); err == nil {
		t.Error("session recorded for unenrolled course")
	}
}

// TestRecordSessionStoresPosition: an exit stores the stop position and
// advances the session. A student who is not enrolled keeps the stored
// position and gets the "not enrolled" error; an unknown student gets
// ErrNotFound.
func TestRecordSessionStoresPosition(t *testing.T) {
	s := testSchool(t)
	num, _ := s.Register(Profile{Name: "A"})
	s.Enroll(num, "ELG5121")
	pos := Position{Scene: "cells", At: 12 * time.Second}

	reg, err := s.RecordSession(num, "ELG5121", pos)
	if err != nil || reg.SessionsDone != 1 {
		t.Fatalf("enrolled exit: %+v err=%v", reg, err)
	}
	if got, found, _ := s.GetResume(num, "ELG5121"); !found || got != pos {
		t.Errorf("enrolled exit stored %+v found=%v, want %+v", got, found, pos)
	}

	_, err = s.RecordSession(num, "ELG5374", pos)
	if err == nil || !strings.Contains(err.Error(), "not enrolled") {
		t.Errorf("exit from a course not enrolled in: %v, want the not-enrolled error", err)
	}
	if got, found, _ := s.GetResume(num, "ELG5374"); !found || got != pos {
		t.Errorf("exit from a course not enrolled in stored %+v found=%v, want %+v", got, found, pos)
	}

	if _, err := s.RecordSession("000", "ELG5121", pos); !errors.Is(err, ErrNotFound) {
		t.Errorf("exit of an unknown student: %v, want ErrNotFound", err)
	}
}

func TestResumeAndBookmarks(t *testing.T) {
	s := testSchool(t)
	num, _ := s.Register(Profile{Name: "A"})
	s.Enroll(num, "ELG5121")

	if _, found, err := s.GetResume(num, "ELG5121"); err != nil || found {
		t.Errorf("resume before save: found=%v err=%v", found, err)
	}
	pos := Position{Scene: "cells", At: 12 * time.Second}
	if err := s.SetResume(num, "ELG5121", pos); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.GetResume(num, "ELG5121")
	if err != nil || !found || got != pos {
		t.Errorf("resume %+v found=%v err=%v", got, found, err)
	}

	if err := s.AddBookmark(num, Bookmark{Label: "cell format", Course: "ELG5121", Scene: "cells", At: 9 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBookmark(num, Bookmark{}); err == nil {
		t.Error("unlabelled bookmark accepted")
	}
	st, _ := s.Student(num)
	if len(st.Bookmarks) != 1 || st.Bookmarks[0].Label != "cell format" {
		t.Errorf("bookmarks %+v", st.Bookmarks)
	}
	// Returned copies must not alias internals.
	st.Bookmarks[0].Label = "mutated"
	again, _ := s.Student(num)
	if again.Bookmarks[0].Label != "cell format" {
		t.Error("Student() aliases internal state")
	}
}

func TestStats(t *testing.T) {
	s := testSchool(t)
	a, _ := s.Register(Profile{Name: "A"})
	b, _ := s.Register(Profile{Name: "B"})
	s.Enroll(a, "ELG5121")
	s.Enroll(b, "ELG5121")
	s.Enroll(b, "HIS1100")
	for i := 0; i < 8; i++ {
		s.RecordSession(b, "HIS1100", Position{})
	}
	stats := s.Stats()
	if stats.Students != 2 || stats.Courses != 3 || stats.Programs != 2 {
		t.Errorf("stats %+v", stats)
	}
	if stats.Enrollments["ELG5121"] != 2 || stats.Enrollments["HIS1100"] != 1 {
		t.Errorf("enrollments %+v", stats.Enrollments)
	}
	if stats.Completions["HIS1100"] != 1 {
		t.Errorf("completions %+v", stats.Completions)
	}
}

func TestServiceOverLoopbackAndTCP(t *testing.T) {
	leaktest.Check(t)
	s := testSchool(t)
	mux := transport.NewMux()
	RegisterService(mux, s)

	run := func(t *testing.T, client Client) {
		num, err := client.Register(Profile{Name: "Remote Student", Email: "r@s.t"})
		if err != nil {
			t.Fatal(err)
		}
		progs, err := client.Programs()
		if err != nil || len(progs) != 2 {
			t.Fatalf("programs %v err=%v", progs, err)
		}
		courses, err := client.CoursesIn("Engineering")
		if err != nil || len(courses) != 2 {
			t.Fatalf("courses %v err=%v", courses, err)
		}
		if err := client.Enroll(num, courses[0].Code); err != nil {
			t.Fatal(err)
		}
		if _, _, found, err := client.Course(num, courses[0].Code); err != nil || found {
			t.Fatalf("course: stop position found=%v err=%v before any exit", found, err)
		}
		reg, err := client.RecordSession(num, courses[0].Code, "intro", 2*time.Second)
		if err != nil || reg.SessionsDone != 1 {
			t.Fatalf("session %+v err=%v", reg, err)
		}
		if c, pos, found, err := client.Course(num, courses[0].Code); err != nil || c.Code != courses[0].Code ||
			!found || pos != (Position{Scene: "intro", At: 2 * time.Second}) {
			t.Fatalf("course %+v stop position %+v found=%v err=%v after the exit", c, pos, found, err)
		}
		if c, _, found, err := client.Course("000", courses[0].Code); err != nil || c.Code != courses[0].Code || found {
			t.Fatalf("course for an unknown student: %+v found=%v err=%v, want the record alone", c, found, err)
		}
		if _, _, _, err := client.Course(num, "NOPE101"); err == nil || !strings.Contains(err.Error(), ErrNotFound.Error()) {
			t.Fatalf("unknown course: %v, want %q", err, ErrNotFound)
		}
		if err := client.SetResume(num, courses[0].Code, "cells", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		pos, found, err := client.GetResume(num, courses[0].Code)
		if err != nil || !found || pos.Scene != "cells" {
			t.Fatalf("resume %+v found=%v err=%v", pos, found, err)
		}
		if err := client.AddBookmark(num, Bookmark{Label: "b"}); err != nil {
			t.Fatal(err)
		}
		if err := client.UpdateProfile(num, Profile{Name: "Renamed"}); err != nil {
			t.Fatal(err)
		}
		if err := client.Login(num); err != nil {
			t.Fatalf("login: %v", err)
		}
		st, err := s.Student(num)
		if err != nil || st.Profile.Name != "Renamed" || len(st.Bookmarks) != 1 {
			t.Fatalf("student %+v err=%v", st, err)
		}
		stats, err := client.Stats()
		if err != nil || stats.Students == 0 {
			t.Fatalf("stats %+v err=%v", stats, err)
		}
		if err := client.Login("000"); err == nil || !strings.Contains(err.Error(), ErrNotFound.Error()+": student 000") {
			t.Errorf("login with an unknown number: %v, want %q", err, ErrNotFound)
		}
	}

	t.Run("loopback", func(t *testing.T) {
		run(t, Client{C: transport.Loopback{H: mux}})
	})
	t.Run("tcp", func(t *testing.T) {
		srv := transport.NewTCPServer(mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tc, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		run(t, Client{C: tc})
	})
}

func TestConcurrentAdministration(t *testing.T) {
	leaktest.Check(t)
	s := testSchool(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			num, err := s.Register(Profile{Name: "student"})
			if err != nil {
				t.Error(err)
				return
			}
			s.Enroll(num, "ELG5121")
			s.RecordSession(num, "ELG5121", Position{})
			s.Student(num)
			s.Stats()
		}()
	}
	wg.Wait()
	if got := s.Stats().Students; got != 8 {
		t.Errorf("students=%d, want 8", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/school.db"
	s := testSchool(t)
	num, _ := s.Register(Profile{Name: "Persistent Student", Email: "p@s"})
	s.Enroll(num, "ELG5121")
	s.RecordSession(num, "ELG5121", Position{})
	s.SetResume(num, "ELG5121", Position{Scene: "cells", At: 7 * time.Second})
	s.SetFee("ELG5121", Fee{EnrollCents: 5000, SessionCents: 100})
	s.RecordPayment(num, 2500)

	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.name != s.name {
		t.Errorf("name %q", loaded.name)
	}
	st, err := loaded.Student(num)
	if err != nil || st.Profile.Name != "Persistent Student" {
		t.Fatalf("student %+v err=%v", st, err)
	}
	if st.Courses[0].SessionsDone != 1 || st.Resume["ELG5121"].Scene != "cells" {
		t.Errorf("progress lost: %+v", st)
	}
	inv, err := loaded.Invoice(num)
	if err != nil || inv.TotalCents != 5100 || inv.PaidCents != 2500 {
		t.Errorf("billing lost: %+v err=%v", inv, err)
	}
	// Student numbering continues where it left off.
	next, _ := loaded.Register(Profile{Name: "Next"})
	if next == num {
		t.Error("student number reused after reload")
	}
	if _, err := Load(dir + "/missing.db"); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// TestConcurrentSavesEachLand: four concurrent saves to one path, 50
// rounds, each complete and loadable. With one shared temp name, one
// save renamed the file away under another's rename.
func TestConcurrentSavesEachLand(t *testing.T) {
	path := t.TempDir() + "/school.db"
	s := testSchool(t)
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- s.Save(path)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}
