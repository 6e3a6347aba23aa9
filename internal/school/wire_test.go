package school

import (
	"fmt"
	"testing"
	"time"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
	"mits/internal/obs/spantest"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// wire is recorded while the package initialises: gob numbers types in
// the order a process first meets them, so the bytes are only
// reproducible before any other test has touched gob.
var wire, wireErr = recordWire()

// recordWire drives every school.* stub once with fixed inputs. Maps in
// the wire structs hold one entry at most, so gob's output is stable.
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
	var st Student
	for _, step := range []func() error{
		func() error { return c.UpdateProfile(num, Profile{Name: "Ada L.", Email: "ada@example.org"}) },
		func() error { _, err := c.Programs(); return err },
		func() error { _, err := c.CoursesIn("Engineering"); return err },
		func() error { _, _, _, err := c.Course(num, "ELG5121"); return err },
		func() error { return c.Enroll(num, "ELG5121") },
		func() error { _, err := c.RecordSession(num, "ELG5121", "scene-1", 30*time.Second); return err },
		func() error { return c.SetResume(num, "ELG5121", "scene-2", 90*time.Second) },
		func() (err error) { pos, found, err = c.GetResume(num, "ELG5121"); return },
		func() error {
			return c.AddBookmark(num, Bookmark{Label: "here", Course: "ELG5121", Scene: "scene-1", At: time.Second})
		},
		func() (err error) { st, err = c.Student(num); return },
		func() error { _, err := c.Stats(); return err },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if !found || pos.Scene != "scene-2" || pos.At != 90*time.Second {
		return nil, fmt.Errorf("GetResume = %+v, %v", pos, found)
	}
	if st.Profile.Name != "Ada L." || len(st.Bookmarks) != 1 {
		return nil, fmt.Errorf("Student = %+v", st)
	}
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all twelve
// school.* stubs with testdata/wire.golden, captured from the
// hand-written stubs this layer replaced. school.Course and
// school.RecordSession were captured again when they began to carry the
// stop position; gob numbers types process-wide, so every later line
// moved with them by its type IDs alone.
func TestWireGolden(t *testing.T) {
	if wireErr != nil {
		t.Fatal(wireErr)
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
			call.Method == MethodSetResume || call.Method == MethodAddBookmark
		if resultless != (call.Resp == nil) {
			t.Errorf("%s: nil response = %v", call.Method, call.Resp == nil)
		}
	}
	wire.Golden(t, "testdata/wire.golden")
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

// TestWireRepeatCalls: the golden pins each method's first call, which
// meets fresh codecs; calls two and three meet primed ones and must put
// the same bytes on the wire, requests and responses alike.
func TestWireRepeatCalls(t *testing.T) {
	if wireErr != nil {
		t.Fatal(wireErr)
	}
	wire.Repeat(t, recordWire)
}
