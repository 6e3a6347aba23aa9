// Package wiretest pins RPC payload bytes: a Recorder sits between a
// service's typed client stubs and its mux, and Golden compares every
// request and response payload it saw against a checked-in hex fixture,
// so a passing test proves the bytes on the wire did not move. Repeat
// runs the same script again in the same process, and the bytes must
// not differ: nothing in a payload may depend on map order or on what
// the process sent before. The package imports nothing of the
// transport, so the transport's own tests can use it too.
package wiretest

import (
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Exchange is one recorded call. A nil payload stays nil (argument-less
// requests and result-less responses send no bytes at all).
type Exchange struct {
	Method    string
	Req, Resp []byte
}

// Recorder is a transport.Client that forwards to Next and records the
// payloads. It implements only the plain Client surface, so stubs reach
// it through the CallInTracePooled fallback chain. Not safe for
// concurrent use.
type Recorder struct {
	Next interface {
		Call(string, []byte) ([]byte, error)
	}
	Calls []Exchange
}

// Call implements transport.Client.
func (r *Recorder) Call(method string, payload []byte) ([]byte, error) {
	out, err := r.Next.Call(method, payload) //mits:allow deadlinecheck a test recorder adds no wait of its own; whatever bounds Next bounds this
	r.Calls = append(r.Calls, Exchange{Method: method, Req: clone(payload), Resp: clone(out)})
	return out, err
}

// Close implements transport.Client.
func (r *Recorder) Close() error { return nil }

func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte{}, b...)
}

// Methods reports the distinct methods recorded so far.
func (r *Recorder) Methods() map[string]bool {
	seen := make(map[string]bool)
	for _, c := range r.Calls {
		seen[c.Method] = true
	}
	return seen
}

func hexOrDash(b []byte) string {
	if b == nil {
		return "-"
	}
	return hex.EncodeToString(b)
}

// format renders the calls one per line: method, request hex, response
// hex, with "-" for a nil payload.
func (r *Recorder) format() string {
	var sb strings.Builder
	for _, c := range r.Calls {
		fmt.Fprintf(&sb, "%s %s %s\n", c.Method, hexOrDash(c.Req), hexOrDash(c.Resp))
	}
	return sb.String()
}

// Golden compares the recorded calls with the fixture at path, line by
// line. A missing fixture is written and the test fails once, asking
// for a review: that is the only way a fixture comes to exist, so a
// format change cannot re-bless itself.
func (r *Recorder) Golden(t *testing.T, path string) {
	t.Helper()
	got := r.format()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote new fixture %s; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%s: %d calls recorded, fixture has %d", path, len(gotLines)-1, len(wantLines)-1)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d: wire bytes changed\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}

// Repeat runs the recording script twice more and compares every
// request and response payload of both runs with r's.
func (r *Recorder) Repeat(t *testing.T, record func() (*Recorder, error)) {
	t.Helper()
	want := strings.Split(r.format(), "\n")
	for run := 2; run <= 3; run++ {
		again, err := record()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := strings.Split(again.format(), "\n")
		if len(got) != len(want) {
			t.Fatalf("run %d recorded %d calls, run 1 recorded %d", run, len(got)-1, len(want)-1)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("run %d call %d: wire bytes differ from the first run\n got %s\nwant %s", run, i+1, got[i], want[i])
			}
		}
	}
}
