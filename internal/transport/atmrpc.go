package transport

import (
	"fmt"
	"time"

	"mits/internal/atm"
	"mits/internal/obs"
	"mits/internal/sim"
)

// obsATMBytes counts framed bytes moved over ATM sessions in either
// direction (cached: one atomic add per message).
var obsATMBytes = obs.GetCounter("transport_atm_bytes_total")

// ATMSession is the request/response protocol carried over a pair of
// simulated ATM virtual connections — one per direction. It is the
// experiment-path twin of TCPClient/TCPServer: because the ATM network
// runs on virtual time, calls are asynchronous (Go + callback) and the
// caller advances the network's clock.
type ATMSession struct {
	net     *atm.Network
	c2s     *atm.Connection
	s2c     *atm.Connection
	handler Handler
	// serviceTime models server request-processing latency (database
	// lookup, disk) before the response leaves.
	serviceTime time.Duration

	nextID   uint64
	pending  map[uint64]atmCall
	reqBytes int64
	rspBytes int64

	// Message reassembly buffers, one per direction: frames larger than
	// an AAL5 PDU are chunked (chunkPayload bytes per PDU) and restored
	// here.
	reqBuf []byte
	rspBuf []byte
}

// atmCall is one request awaiting its response.
type atmCall struct {
	method string
	done   func(payload []byte, err error)
}

// chunkPayload is the message chunk carried per AAL5 PDU, leaving room
// for the one-byte chunk flags under the 64 KB PDU limit.
const chunkPayload = 60000

// Chunk flag bits.
const (
	chunkFirst = 1 << 0
	chunkLast  = 1 << 1
)

// sendChunked splits a message into flagged PDUs.
func sendChunked(conn *atm.Connection, body []byte) error {
	for off := 0; ; off += chunkPayload {
		end := off + chunkPayload
		var flags byte
		if off == 0 {
			flags |= chunkFirst
		}
		if end >= len(body) {
			end = len(body)
			flags |= chunkLast
		}
		pdu := make([]byte, 1+end-off)
		pdu[0] = flags
		copy(pdu[1:], body[off:end])
		if err := conn.Send(pdu); err != nil {
			return err
		}
		if flags&chunkLast != 0 {
			return nil
		}
	}
}

// accumulate merges a chunk into buf, returning the completed message
// when the last chunk lands.
func accumulate(buf *[]byte, pdu []byte) ([]byte, bool) {
	if len(pdu) < 1 {
		return nil, false
	}
	flags := pdu[0]
	if flags&chunkFirst != 0 {
		*buf = (*buf)[:0]
	}
	*buf = append(*buf, pdu[1:]...)
	if flags&chunkLast == 0 {
		return nil, false
	}
	msg := make([]byte, len(*buf))
	copy(msg, *buf)
	*buf = (*buf)[:0]
	return msg, true
}

// OpenATMSession wires a client host to a server host running h over
// UBR virtual connections at 100 Mb/s; serviceTime is the per-request
// server processing time.
func OpenATMSession(n *atm.Network, client, server *atm.Host, h Handler, serviceTime time.Duration) (*ATMSession, error) {
	td := atm.UBRContract(100e6)
	s := &ATMSession{
		net:         n,
		handler:     h,
		serviceTime: serviceTime,
		pending:     make(map[uint64]atmCall),
	}
	var err error
	s.c2s, err = n.Open(client, server, td, atm.OpenOptions{Deliver: s.onRequest})
	if err != nil {
		return nil, fmt.Errorf("transport: open request VC: %w", err)
	}
	s.s2c, err = n.Open(server, client, td, atm.OpenOptions{Deliver: s.onResponse})
	if err != nil {
		s.c2s.Close()
		return nil, fmt.Errorf("transport: open response VC: %w", err)
	}
	return s, nil
}

// Go issues a request; cb runs (in virtual time) when the response
// arrives. Run the network clock to make progress. Like the TCP
// client, each request opens a trace whose IDs ride the frame header;
// the RPC latency histogram is measured on the network's virtual
// clock, which is the latency the experiments reason about.
func (s *ATMSession) Go(method string, payload []byte, cb func(payload []byte, err error)) error {
	s.nextID++
	sp := obs.StartSpan(method, "client")
	issued := s.net.Clock().Now()
	f := &frame{
		kind: kindRequest, id: s.nextID, method: method, payload: payload,
		trace: uint64(sp.Trace), span: uint64(sp.ID),
	}
	s.pending[f.id] = atmCall{method: method, done: func(p []byte, err error) {
		sp.End(err)
		obs.Observe("transport_atm_rpc_latency_ns", s.net.Clock().Now().Sub(issued), "method", method)
		obs.GetCounter("transport_atm_rpcs_total", "method", method).Inc()
		if err != nil {
			obs.GetCounter("transport_atm_errors_total", "method", method).Inc()
		}
		cb(p, err)
	}}
	body := f.marshal()
	s.reqBytes += int64(len(body))
	obsATMBytes.Add(int64(len(body)))
	return sendChunked(s.c2s, body)
}

// complete fires and removes a pending callback; a response for no
// pending call (a duplicate, a confused peer) is dropped.
func (s *ATMSession) complete(id uint64, payload []byte, errText string) {
	c, ok := s.pending[id]
	if !ok {
		return
	}
	delete(s.pending, id)
	if errText != "" {
		c.done(nil, &RemoteError{Method: c.method, Text: errText})
		return
	}
	c.done(payload, nil)
}

func (s *ATMSession) onRequest(pdu []byte, _, _ sim.Time) {
	msg, done := accumulate(&s.reqBuf, pdu)
	if !done {
		return
	}
	req, err := unmarshalFrame(msg)
	if err != nil || req.kind != kindRequest {
		return // corrupt request: the client will never hear back
	}
	respond := func(sim.Time) {
		var sp *obs.Span
		if req.trace != 0 {
			sp = obs.ContinueSpan(req.method, "server", obs.TraceID(req.trace), obs.SpanID(req.span))
		}
		payload, release, herr := Loopback{H: s.handler}.CallInTracePooled(obs.SpanContext{}, req.method, req.payload)
		sp.End(herr)
		resp := &frame{kind: kindResponse, id: req.id, trace: req.trace, span: req.span, payload: payload}
		if herr != nil {
			resp.errText = herr.Error()
			resp.payload = nil
		}
		body := resp.marshal()
		if release != nil {
			release() // a pooled response: marshal copied it
		}
		s.rspBytes += int64(len(body))
		obsATMBytes.Add(int64(len(body)))
		sendChunked(s.s2c, body) //mits:allow errdrop closed session drops responses
	}
	if s.serviceTime > 0 {
		s.net.Clock().After(s.serviceTime, respond)
	} else {
		respond(s.net.Clock().Now())
	}
}

func (s *ATMSession) onResponse(pdu []byte, _, _ sim.Time) {
	msg, done := accumulate(&s.rspBuf, pdu)
	if !done {
		return
	}
	resp, err := unmarshalFrame(msg)
	if err != nil || resp.kind != kindResponse {
		return
	}
	s.complete(resp.id, resp.payload, resp.errText)
}

// Traffic reports bytes moved in each direction (payload framing
// included, ATM overhead excluded).
func (s *ATMSession) Traffic() (request, response int64) { return s.reqBytes, s.rspBytes }

// Metrics exposes the underlying connections' metrics (request
// direction, response direction).
func (s *ATMSession) Metrics() (c2s, s2c *atm.ConnMetrics) {
	return &s.c2s.Metrics, &s.s2c.Metrics
}

// Close tears down both virtual connections.
func (s *ATMSession) Close() {
	s.c2s.Close()
	s.s2c.Close()
}

// CallOver runs a synchronous call over the session by driving the
// network clock until the response lands — a convenience for tests and
// sequential experiment scripts.
func (s *ATMSession) CallOver(method string, payload []byte) ([]byte, error) {
	var out []byte
	var rerr error
	done := false
	if err := s.Go(method, payload, func(p []byte, err error) {
		out, rerr, done = p, err, true
	}); err != nil {
		return nil, err
	}
	clock := s.net.Clock()
	for !done && clock.Step() {
	}
	if !done {
		return nil, fmt.Errorf("transport: ATM call %s never completed (cells lost?)", method)
	}
	return out, rerr
}
