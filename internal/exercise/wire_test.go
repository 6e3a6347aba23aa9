package exercise

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

// recordWire drives every ex.* stub once with fixed inputs. The set has
// one problem, so every map on the wire has one entry and gob's output
// is stable.
func recordWire() (*wiretest.Recorder, error) {
	mux := transport.NewMux()
	RegisterService(mux, NewBook())
	rec := &wiretest.Recorder{Next: transport.Loopback{H: mux}}
	c := Client{C: rec}

	var set *Set
	var g, best *Grade
	var found bool
	for _, step := range []func() error{
		func() error {
			return c.AddSet(&Set{ID: "q1", Course: "ELG5121", Title: "Quiz 1", Problems: []Problem{{
				ID: "p1", Kind: Numeric, Prompt: "cells per AAL5 PDU of 48 bytes?", MediaRef: "media/p1",
				Answer: "1", Tolerance: 0.5, Points: 3, Feedback: "count the trailer",
			}}})
		},
		func() error { _, err := c.SetsFor("ELG5121"); return err },
		func() (err error) { set, err = c.Presentable("q1"); return },
		func() (err error) { g, err = c.Submit("q1", "S1", map[string]string{"p1": "1"}); return },
		func() (err error) { best, found, err = c.Best("q1", "S1"); return },
		func() error { _, err := c.Stats("q1"); return err },
		func() error { _, err := c.Contest("ELG5121"); return err },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if set.Problems[0].Answer != "" {
		return nil, fmt.Errorf("Presentable leaked the answer %q", set.Problems[0].Answer)
	}
	if g.Score != 3 || !found || best.Score != 3 {
		return nil, fmt.Errorf("Submit = %+v, Best = %+v, %v", g, best, found)
	}
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all seven
// ex.* stubs with testdata/wire.golden, captured from the hand-written
// stubs this layer replaced.
func TestWireGolden(t *testing.T) {
	if wireErr != nil {
		t.Fatal(wireErr)
	}
	if got := len(wire.Methods()); got != 7 {
		t.Errorf("%d ex.* methods exercised, want all 7", got)
	}
	for _, call := range wire.Calls {
		if call.Req == nil {
			t.Errorf("%s: nil request", call.Method)
		}
		if (call.Method == MethodAddSet) != (call.Resp == nil) {
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
