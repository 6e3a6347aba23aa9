package facilitator

import (
	"fmt"
	"testing"

	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// wire is recorded while the package initialises: gob numbers types in
// the order a process first meets them, so the bytes are only
// reproducible before any other test has touched gob.
var wire, wireErr = recordWire()

// recordWire drives every fac.* stub once with fixed inputs.
func recordWire() (*wiretest.Recorder, error) {
	mux := transport.NewMux()
	RegisterService(mux, New())
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
		func() error { _, err := c.Members("atm"); return err },
		func() error { _, err := c.Rooms(); return err },
		func() error { return c.Leave("atm", "ada") },
		func() error { _, err := c.Publish("news", "prof", "exam", "next week"); return err },
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

// TestWireGolden compares the request/response payloads of all twelve
// fac.* stubs with testdata/wire.golden, captured from the hand-written
// stubs this layer replaced.
func TestWireGolden(t *testing.T) {
	if wireErr != nil {
		t.Fatal(wireErr)
	}
	if got := len(wire.Methods()); got != 12 {
		t.Errorf("%d fac.* methods exercised, want all 12", got)
	}
	for _, call := range wire.Calls {
		argless := call.Method == MethodRooms || call.Method == MethodBoards
		if argless != (call.Req == nil) {
			t.Errorf("%s: nil request = %v", call.Method, call.Req == nil)
		}
		resultless := call.Method == MethodOpenRoom || call.Method == MethodJoin || call.Method == MethodLeave
		if resultless != (call.Resp == nil) {
			t.Errorf("%s: nil response = %v", call.Method, call.Resp == nil)
		}
	}
	wire.Golden(t, "testdata/wire.golden")
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
