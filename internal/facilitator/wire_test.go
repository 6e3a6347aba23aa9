package facilitator

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"mits/internal/obs"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// recordWire drives every fac.* stub once with fixed inputs.
func recordWire() (*wiretest.Recorder, error) {
	mux := transport.NewMux()
	fac := New()
	RegisterService(mux, fac)
	rec := &wiretest.Recorder{Next: transport.Loopback{H: mux}}
	c := Client{C: rec}

	var seq int
	var msgs []ChatMessage
	var mail []Mail
	for _, step := range []func() error{
		func() error { return c.OpenRoom("atm") },
		func() error { return c.Join("atm", "ada") },
		func() (err error) { seq, err = c.Say("atm", "ada", "what is a VC?"); return },
		func() (err error) { msgs, err = c.Messages("atm", 0); return },
		func() error { _, err := c.Rooms(); return err },
		// The board is posted to where the facilitator runs, not over the wire.
		func() error { _, err := fac.Publish("news", "prof", "exam", "next week"); return err },
		func() error { _, err := c.Read("news", 0); return err },
		func() error { _, err := c.Boards(); return err },
		func() error { _, err := c.SendMail("ada", "prof", "question", "about the exam"); return err },
		func() (err error) { mail, err = c.Inbox("prof"); return },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if len(msgs) != 1 || msgs[0].Seq != seq {
		return nil, fmt.Errorf("Messages = %+v, said seq %d", msgs, seq)
	}
	if len(mail) != 1 || mail[0].From != "ada" {
		return nil, fmt.Errorf("Inbox = %+v", mail)
	}
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all nine
// fac.* stubs with testdata/wire.golden.
func TestWireGolden(t *testing.T) {
	wire, err := recordWire()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wire.Methods()); got != 9 {
		t.Errorf("%d fac.* methods exercised, want all 9", got)
	}
	for _, call := range wire.Calls {
		argless := call.Method == MethodRooms || call.Method == MethodBoards
		if argless != (call.Req == nil) {
			t.Errorf("%s: nil request = %v", call.Method, call.Req == nil)
		}
		resultless := call.Method == MethodOpenRoom || call.Method == MethodJoin
		if resultless != (call.Resp == nil) {
			t.Errorf("%s: nil response = %v", call.Method, call.Resp == nil)
		}
	}
	wire.Golden(t, "testdata/wire.golden")
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

// TestPayloadMatchesGob: every Req and Resp the fac.* routes carry.
func TestPayloadMatchesGob(t *testing.T) {
	sameAsGob(t, "", "atm")
	sameAsGob(t, 0, -1, 1<<40)
	sameAsGob(t, []string(nil), []string{}, []string{"news", "atm", ""})
	sameAsGob(t, roomMemberReq{}, roomMemberReq{Room: "atm", Member: "ada"})
	sameAsGob(t, sayReq{}, sayReq{Room: "atm", Member: "ada", Text: "what is a VC?"})
	sameAsGob(t, pollReq{}, pollReq{Name: "atm", After: -3})
	sameAsGob(t, mailReq{}, mailReq{From: "ada", To: "prof", Subject: "q", Body: "b"})
	sameAsGob(t, []ChatMessage(nil), []ChatMessage{}, []ChatMessage{{Seq: 1, Author: "ada", Text: "hi"}, {}})
	sameAsGob(t, []Post(nil), []Post{}, []Post{{Seq: 2, Author: "prof", Subject: "exam", Body: "next week"}, {}})
	sameAsGob(t, []Mail(nil), []Mail{}, []Mail{{Seq: 3, From: "ada", To: "prof", Subject: "q", Body: "b"}, {}})
}
