package exercise

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

// recordWire drives every ex.* stub once with fixed inputs.
func recordWire() (*wiretest.Recorder, error) {
	mux := transport.NewMux()
	book := NewBook()
	if err := book.AddSet(&Set{ID: "q1", Course: "ELG5121", Title: "Quiz 1", Problems: []Problem{{
		ID: "p1", Kind: Numeric, Prompt: "cells per AAL5 PDU of 48 bytes?", MediaRef: "media/p1",
		Answer: "1", Tolerance: 0.5, Points: 3, Feedback: "count the trailer",
	}}}); err != nil {
		return nil, err
	}
	RegisterService(mux, book)
	rec := &wiretest.Recorder{Next: transport.Loopback{H: mux}}
	c := Client{C: rec}

	var set *Set
	var g *Grade
	for _, step := range []func() error{
		func() error { _, err := c.SetsFor("ELG5121"); return err },
		func() (err error) { set, err = c.Presentable("q1"); return },
		func() (err error) { g, err = c.Submit("q1", "S1", map[string]string{"p1": "1"}); return },
		func() error { _, err := c.Contest("ELG5121"); return err },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if set.Problems[0].Answer != "" {
		return nil, fmt.Errorf("Presentable leaked the answer %q", set.Problems[0].Answer)
	}
	if g.Score != 3 {
		return nil, fmt.Errorf("Submit = %+v", g)
	}
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all four
// ex.* stubs with testdata/wire.golden.
func TestWireGolden(t *testing.T) {
	wire, err := recordWire()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wire.Methods()); got != 4 {
		t.Errorf("%d ex.* methods exercised, want all 4", got)
	}
	for _, call := range wire.Calls {
		if call.Req == nil {
			t.Errorf("%s: nil request", call.Method)
		}
		if call.Resp == nil {
			t.Errorf("%s: nil response", call.Method)
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

// TestPayloadMatchesGob: every Req and Resp the ex.* routes carry.
func TestPayloadMatchesGob(t *testing.T) {
	set := Set{ID: "q1", Course: "ELG5121", Title: "Quiz 1", Problems: []Problem{
		{ID: "p1", Kind: Numeric, Prompt: "cells?", Answer: "1", Tolerance: 0.5, Points: 3, Feedback: "trailer"},
		{ID: "p2", Kind: MultipleChoice, Options: []string{"AAL1", "AAL5", ""}, Answer: "1", Points: -1},
		{ID: "p3", Options: []string{}},
	}}
	grade := Grade{Student: "S1", SetID: "q1", Score: 3, Max: 5, Attempt: 2, Results: map[string]Result{
		"p2": {}, "p1": {Correct: true, Earned: 3}, "p3": {Feedback: "see §2"},
	}}
	sameAsGob(t, Set{}, set, Set{ID: "empty", Problems: []Problem{}})
	sameAsGob(t, &set, &Set{})
	sameAsGob(t, "", "ELG5121")
	sameAsGob(t, []string(nil), []string{}, []string{"q2", "q1"})
	sameAsGob(t, submitReq{}, submitReq{SetID: "q1", Student: "S1", Answers: map[string]string{"p2": "1", "p1": "1.2", "p3": ""}},
		submitReq{Answers: map[string]string{}})
	sameAsGob(t, &grade, &Grade{}, &Grade{Results: map[string]Result{}})
	sameAsGob(t, []Standing(nil), []Standing{}, []Standing{{Student: "S2", Score: 7, Max: 8}, {}})
}
