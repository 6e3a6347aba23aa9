package school

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/obs/spantest"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// recordWire drives every school.* stub once with fixed inputs, then
// reads the student's record back in process: its profile, its bookmark
// and its stop positions, one per course. school.Login replaced
// school.Student on the wire, so testdata/wire.golden's line 11 carries
// the number and an empty reply where the whole record was.
func recordWire() (*wiretest.Recorder, error) {
	s := New("MITS")
	if err := s.AddCourse(Course{Code: "ELG5121", Name: "Multimedia", Program: "Engineering",
		PlannedSessions: 2, Document: "elg5121.doc", IntroRef: "intro/elg5121"}); err != nil {
		return nil, err
	}
	mux := transport.NewMux()
	RegisterService(mux, s)
	rec := &wiretest.Recorder{Next: transport.Loopback{H: mux}}
	c := Client{C: rec}

	num, err := c.Register(Profile{Name: "Ada", Address: "1 Main St", Email: "ada@example.org", Background: "math"})
	if err != nil {
		return nil, err
	}
	var pos Position
	var found bool
	for _, step := range []func() error{
		func() error { return c.UpdateProfile(num, Profile{Name: "Ada L.", Email: "ada@example.org"}) },
		func() error { _, err := c.Programs(); return err },
		func() error { _, err := c.CoursesIn("Engineering"); return err },
		func() error { _, _, _, err := c.Course(num, "ELG5121"); return err },
		func() error { return c.Enroll(num, "ELG5121") },
		func() error { _, err := c.RecordSession(num, "ELG5121", "scene-1", 30*time.Second); return err },
		func() error { return c.SetResume(num, "ELG5374", "scene-2", 90*time.Second) },
		func() (err error) { pos, found, err = c.GetResume(num, "ELG5374"); return },
		func() error {
			return c.AddBookmark(num, Bookmark{Label: "here", Course: "ELG5121", Scene: "scene-1", At: time.Second})
		},
		func() error { return c.Login(num) },
		func() error { _, err := c.Stats(); return err },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if !found || pos.Scene != "scene-2" || pos.At != 90*time.Second {
		return nil, fmt.Errorf("GetResume = %+v, %v", pos, found)
	}
	st, err := s.Student(num)
	if err != nil {
		return nil, err
	}
	if st.Profile.Name != "Ada L." || len(st.Bookmarks) != 1 || len(st.Resume) != 2 {
		return nil, fmt.Errorf("Student = %+v", st)
	}
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all twelve
// school.* stubs with testdata/wire.golden.
func TestWireGolden(t *testing.T) {
	wire, err := recordWire()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wire.Methods()); got != 12 {
		t.Errorf("%d school.* methods exercised, want all 12", got)
	}
	for _, call := range wire.Calls {
		argless := call.Method == MethodPrograms || call.Method == MethodStats
		if argless != (call.Req == nil) {
			t.Errorf("%s: nil request = %v", call.Method, call.Req == nil)
		}
		resultless := call.Method == MethodUpdateProfile || call.Method == MethodEnroll ||
			call.Method == MethodSetResume || call.Method == MethodAddBookmark || call.Method == MethodLogin
		if resultless != (call.Resp == nil) {
			t.Errorf("%s: nil response = %v", call.Method, call.Resp == nil)
		}
	}
	wire.Golden(t, "testdata/wire.golden")
}

// TestLoginReplyDoesNotGrow: school.Login puts the same bytes on the
// wire, request and reply, for a fresh student and for one with 100
// bookmarks, 10 registrations and 10 stop positions. (school.Student,
// which it replaced, shipped the whole record.)
func TestLoginReplyDoesNotGrow(t *testing.T) {
	login := func(history bool) wiretest.Exchange {
		t.Helper()
		s := New("MITS")
		num, err := s.Register(Profile{Name: "Ada"})
		if err != nil {
			t.Fatal(err)
		}
		if history {
			for i := 0; i < 10; i++ {
				code := fmt.Sprintf("ELG51%02d", i)
				if err := s.AddCourse(Course{Code: code, Name: "Course " + code, Program: "Engineering", PlannedSessions: 5}); err != nil {
					t.Fatal(err)
				}
				if err := s.Enroll(num, code); err != nil {
					t.Fatal(err)
				}
				if _, err := s.RecordSession(num, code, Position{Scene: "scene-1", At: time.Duration(i) * time.Second}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				if err := s.AddBookmark(num, Bookmark{Label: fmt.Sprintf("mark %d", i), Course: "ELG5100", Scene: "scene-1", At: time.Duration(i) * time.Second}); err != nil {
					t.Fatal(err)
				}
			}
			if st, err := s.Student(num); err != nil || len(st.Bookmarks) != 100 || len(st.Courses) != 10 || len(st.Resume) != 10 {
				t.Fatalf("history not filed: %d bookmarks, %d registrations, %d stop positions, %v",
					len(st.Bookmarks), len(st.Courses), len(st.Resume), err)
			}
		}
		mux := transport.NewMux()
		RegisterService(mux, s)
		rec := &wiretest.Recorder{Next: transport.Loopback{H: mux}}
		if err := (Client{C: rec}).Login(num); err != nil {
			t.Fatal(err)
		}
		if len(rec.Calls) != 1 || rec.Calls[0].Method != MethodLogin {
			t.Fatalf("login made %+v, want one %s", rec.Calls, MethodLogin)
		}
		return rec.Calls[0]
	}
	fresh, long := login(false), login(true)
	if !bytes.Equal(fresh.Req, long.Req) || !bytes.Equal(fresh.Resp, long.Resp) {
		t.Errorf("login of a fresh student sent %x and got %x; with a history, %x and %x",
			fresh.Req, fresh.Resp, long.Req, long.Resp)
	}
}

// TestCallsContinueTheCallersTrace: a school.* call issued under a span
// context travels under that trace — the frame header carries it, so
// the server's span for the call joins it. (The hand-written stubs went
// out through a bare Client.Call and every call opened a trace of its
// own.)
func TestCallsContinueTheCallersTrace(t *testing.T) {
	leaktest.Check(t)
	mux := transport.NewMux()
	RegisterService(mux, New("MITS"))
	srv := transport.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rec := spantest.Record(t, obs.Default)
	root := obs.StartSpan("test.session", "internal")
	_, err = Client{C: cli, Trace: root.Context()}.Register(Profile{Name: "Traced"})
	root.End(err)
	if err != nil {
		t.Fatal(err)
	}
	var client, server *obs.Span
	for _, s := range rec.Of(root.Trace) {
		if s.Name != MethodRegister {
			continue
		}
		switch s.Kind {
		case "client":
			client = s
		case "server":
			server = s
		}
	}
	if client == nil || server == nil {
		t.Fatalf("trace %s lacks the school.Register client/server pair: %+v", root.Trace, rec.Of(root.Trace))
	}
	if client.Parent != root.ID || server.Parent != client.ID {
		t.Fatalf("span chain broken: root %s ← client parent %s, client %s ← server parent %s",
			root.ID, client.Parent, client.ID, server.Parent)
	}
}

// TestWireRepeatCalls: the script run again in the same process puts
// the same bytes on the wire, requests and responses alike.
func TestWireRepeatCalls(t *testing.T) {
	wire, err := recordWire()
	if err != nil {
		t.Fatal(err)
	}
	wire.Repeat(t, recordWire)
}

// sameAsGob sends each sample through a route that echoes it, the
// payload codec both ways, and fails unless what comes back is what an
// encoding/gob round trip of the sample gives: the semantics callers of
// the gob era relied on.
func sameAsGob[T any](t *testing.T, samples ...T) {
	t.Helper()
	mux := transport.NewMux()
	transport.Route(mux, "echo", func(v T) (T, error) { return v, nil })
	for i, v := range samples {
		var got, want T
		if err := transport.Invoke(transport.Loopback{H: mux}, obs.SpanContext{}, "echo", v, &got); err != nil {
			t.Fatalf("%T sample %d: %v", v, i, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(&want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T sample %d: the codec gives %+v, gob %+v", v, i, got, want)
		}
	}
}

// TestPayloadMatchesGob: every Req and Resp the school.* routes carry.
func TestPayloadMatchesGob(t *testing.T) {
	course := Course{Code: "ELG5121", Name: "Multimedia", Program: "Engineering", PlannedSessions: 2, Document: "elg5121.doc", IntroRef: "intro/elg5121"}
	profile := Profile{Name: "Ada", Address: "1 Main St", Email: "ada@example.org", Background: "math"}
	pos := Position{Scene: "scene-2", At: 90 * time.Second}
	sameAsGob(t, Profile{}, profile)
	sameAsGob(t, "", "S1")
	sameAsGob(t, Student{}, Student{Courses: []Registration{}, Bookmarks: []Bookmark{}, Resume: map[string]Position{}},
		Student{Number: "S1", Profile: profile,
			Courses:   []Registration{{CourseCode: "ELG5121", SessionsDone: 2, Completed: true}, {CourseCode: "ELG5374"}},
			Bookmarks: []Bookmark{{Label: "here", Course: "ELG5121", Scene: "scene-1", At: -time.Second}, {}},
			Resume:    map[string]Position{"ELG5374": pos, "ELG5121": {}, "": {Scene: "s"}}})
	sameAsGob(t, profileReq{}, profileReq{Number: "S1", Profile: profile})
	sameAsGob(t, []string(nil), []string{}, []string{"Engineering", "Arts"})
	sameAsGob(t, []Course(nil), []Course{}, []Course{course, {}})
	sameAsGob(t, studentCourseReq{}, studentCourseReq{Number: "S1", Course: "ELG5121"})
	sameAsGob(t, courseResp{}, courseResp{Course: course, Pos: pos, Found: true})
	sameAsGob(t, resumeSetReq{}, resumeSetReq{Number: "S1", Course: "ELG5121", Pos: pos})
	sameAsGob(t, Registration{}, Registration{CourseCode: "ELG5121", SessionsDone: 1})
	sameAsGob(t, resumeResp{}, resumeResp{Pos: pos, Found: true})
	sameAsGob(t, bookmarkReq{}, bookmarkReq{Number: "S1", Bookmark: Bookmark{Label: "here", At: time.Minute}})
	sameAsGob(t, Statistics{}, Statistics{Enrollments: map[string]int{}, Completions: map[string]int{}},
		Statistics{Students: 2, Courses: 3, Programs: 1, Enrollments: map[string]int{"ELG5374": 1, "ELG5121": 2}, Completions: map[string]int{"ELG5121": 1}})
}

// TestRecordSessionRefusesTheOldRequest: a school.RecordSession request
// in the shape it had before it carried the stop position — the student
// and the course alone — is refused, and neither the position filed
// before it nor the course progress moves.
func TestRecordSessionRefusesTheOldRequest(t *testing.T) {
	s := New("MITS")
	if err := s.AddCourse(Course{Code: "ELG5121", Name: "Multimedia", Program: "Engineering", PlannedSessions: 2}); err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	RegisterService(mux, s)
	c := Client{C: transport.Loopback{H: mux}}
	num, err := c.Register(Profile{Name: "Ada"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Enroll(num, "ELG5121"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetResume(num, "ELG5121", "scene-2", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	var reg Registration
	if err := transport.Invoke(c.C, obs.SpanContext{}, MethodRecordSession, studentCourseReq{Number: num, Course: "ELG5121"}, &reg); err == nil {
		t.Errorf("the position-less request was taken: %+v", reg)
	}
	pos, found, err := c.GetResume(num, "ELG5121")
	if err != nil || !found || pos != (Position{Scene: "scene-2", At: 90 * time.Second}) {
		t.Errorf("stored position after the refused request: %+v, %v, %v", pos, found, err)
	}
	if st, err := s.Student(num); err != nil || st.Courses[0].SessionsDone != 0 {
		t.Errorf("course progress after the refused request: %+v, %v", st.Courses, err)
	}
}
