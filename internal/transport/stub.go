package transport

import (
	"bytes"
	"encoding/gob"

	"mits/internal/obs"
)

// The typed-RPC stub layer: the one client module and the one server
// dispatch routine of §5.3.2. Every typed service call in the system —
// db.*, school.*, ex.*, fac.* — is an Invoke on the client side and a
// Route on the server side, so the payload format (one gob value per
// direction, no bytes at all for "no argument" / "no result") and the
// call sequence (encode → CallInTracePooled → decode → release) are
// written down here and nowhere else. Service packages own only their
// method names and wire structs.

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Invoke issues one typed call: req is gob-encoded (nil sends no
// payload), the call goes out through the carrier's pooled path under
// the caller's span context (zero = untraced or fresh trace, as the
// carrier decides), and the response is gob-decoded into resp, a
// pointer (nil discards it). Invoke owns the response buffer: gob
// copies every byte it keeps, so the buffer is released exactly once
// before returning — after a successful decode and after a failed one
// alike — and nothing the caller receives aliases it.
func Invoke(c Client, sc obs.SpanContext, method string, req, resp any) error {
	var payload []byte
	if req != nil {
		var err error
		if payload, err = gobEncode(req); err != nil {
			return err
		}
	}
	out, release, err := CallInTracePooled(c, sc, method, payload)
	if err != nil {
		return err
	}
	if resp != nil {
		err = gobDecode(out, resp)
	}
	if release != nil {
		release()
	}
	return err
}

// Route mounts fn on the mux as method's handler: the request payload
// is gob-decoded into a Req, fn's Resp is gob-encoded as the response.
// A Req of struct{} means the method takes no argument (the payload is
// ignored), a Resp of struct{} that it returns none (a nil payload) —
// the conventions Invoke's nil req and nil resp speak from the other
// side. Call it with inferred type arguments.
func Route[Req, Resp any](m *Mux, method string, fn func(Req) (Resp, error)) {
	RouteCtx(m, method, func(_ obs.SpanContext, req Req) (Resp, error) { return fn(req) })
}

// RouteCtx is Route for handlers that continue the request's trace.
func RouteCtx[Req, Resp any](m *Mux, method string, fn func(obs.SpanContext, Req) (Resp, error)) {
	_, noReq := any(*new(Req)).(struct{})
	_, noResp := any(*new(Resp)).(struct{})
	m.RegisterCtx(method, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, error) {
		var req Req
		if !noReq {
			if err := gobDecode(payload, &req); err != nil {
				return nil, err
			}
		}
		resp, err := fn(sc, req)
		if err != nil || noResp {
			return nil, err
		}
		return gobEncode(resp)
	})
}
