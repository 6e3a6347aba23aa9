package transport

import (
	"errors"
	"testing"

	"mits/internal/obs"
)

// pooledFake is a PooledTraceCaller that answers every call with resp
// (or err) and counts how often the release it hands out is called.
type pooledFake struct {
	resp     []byte
	err      error
	sc       obs.SpanContext
	releases int
}

func (f *pooledFake) Call(string, []byte) ([]byte, error) { panic("Invoke must take the pooled path") }
func (f *pooledFake) Close() error                        { return nil }
func (f *pooledFake) CallInTracePooled(sc obs.SpanContext, _ string, _ []byte) ([]byte, func(), error) {
	f.sc = sc
	if f.err != nil {
		return nil, nil, f.err
	}
	return f.resp, func() { f.releases++ }, nil
}

// TestInvokeReleasesExactlyOnce: Invoke owns the pooled response. It is
// released once after a successful decode, once after a failed decode,
// once when the caller discards the result — and a failed call hands
// out nothing to release.
func TestInvokeReleasesExactlyOnce(t *testing.T) {
	good, err := appendPayload(nil, "payload")
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.SpanContext{Trace: 0xfeed, Parent: 7}
	boom := errors.New("boom")
	var out string
	for _, tc := range []struct {
		name     string
		fake     pooledFake
		resp     any
		wantErr  bool
		releases int
	}{
		{"decoded", pooledFake{resp: good}, &out, false, 1},
		{"decode error", pooledFake{resp: []byte("not a payload")}, &out, true, 1},
		{"result discarded", pooledFake{resp: good}, nil, false, 1},
		{"call failed", pooledFake{err: boom}, &out, true, 0},
	} {
		fake := tc.fake
		err := Invoke(&fake, sc, "m", "req", tc.resp)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if fake.releases != tc.releases {
			t.Errorf("%s: response released %d times, want %d", tc.name, fake.releases, tc.releases)
		}
		if fake.sc != sc {
			t.Errorf("%s: call went out under %+v, want the caller's %+v", tc.name, fake.sc, sc)
		}
	}
	if out != "payload" {
		t.Errorf("decoded %q", out)
	}
}

// TestRouteNilPayloadConventions: a struct{} request type ignores the
// payload and a struct{} response type answers with none, matching
// Invoke's nil req and nil resp on the client side.
func TestRouteNilPayloadConventions(t *testing.T) {
	mux := NewMux()
	Route(mux, "ping", func(struct{}) (struct{}, error) { return struct{}{}, nil })
	Route(mux, "len", func(s string) (int, error) { return len(s), nil })
	out, err := mux.Handle("ping", []byte("ignored, not even a payload"))
	if err != nil || out != nil {
		t.Fatalf("ping = %x, %v; want nil, nil", out, err)
	}
	c := Loopback{H: mux}
	if err := Invoke(c, obs.SpanContext{}, "ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := Invoke(c, obs.SpanContext{}, "len", "four", &n); err != nil || n != 4 {
		t.Fatalf("len = %d, %v", n, err)
	}
	if _, err := mux.Handle("len", []byte("not a payload")); err == nil {
		t.Fatal("garbage request decoded")
	}
}
