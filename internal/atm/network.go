package atm

import (
	"errors"
	"fmt"
	"time"

	"mits/internal/sim"
)

// ErrAdmissionDenied is returned when connection admission control finds
// a link on the path without enough unreserved capacity for the
// contract's guaranteed rate.
var ErrAdmissionDenied = errors.New("atm: connection admission denied: insufficient capacity")

// ErrNoRoute is returned when no path exists between the endpoints.
var ErrNoRoute = errors.New("atm: no route between endpoints")

// DefaultBufferCells is the per-link output buffer used unless overridden.
const DefaultBufferCells = 512

// switchLatency is the fixed per-cell forwarding latency of a switch
// fabric, on top of queueing. OCRInet-era hardware forwarded in a few
// microseconds.
const switchLatency = 4 * time.Microsecond

// Network is an ATM network: switches, hosts, links, and the virtual
// connections routed across them. All activity runs on the owned
// sim.Clock.
type Network struct {
	clock    *sim.Clock
	nodes    map[string]node
	adjacent map[node][]*Link // outgoing links per node
	conns    map[int]*Connection
	nextConn int
	nextVCI  uint16

	// reserved tracks guaranteed cell rate allocated per link by CAC.
	reserved map[*Link]float64

	// Policing enables GCRA enforcement at the network edge (the first
	// switch a connection's cells enter). Non-conforming cells of
	// real-time categories are dropped; others are tagged CLP=1.
	Policing bool

	// FIFO disables per-class priority queueing and buffer
	// partitioning: every cell shares one first-come queue, like a
	// plain packet switch. This is the E23 ablation — it removes the
	// mechanism that isolates reserved traffic from best-effort floods.
	FIFO bool

	// BufferCells sets the output buffer of links created afterwards.
	BufferCells int
}

// New creates an empty network on its own virtual clock.
func New() *Network {
	return &Network{
		clock:       sim.NewClock(),
		nodes:       make(map[string]node),
		adjacent:    make(map[node][]*Link),
		conns:       make(map[int]*Connection),
		reserved:    make(map[*Link]float64),
		nextVCI:     32, // VCIs below 32 are reserved for signalling
		BufferCells: DefaultBufferCells,
	}
}

// Clock exposes the network's virtual clock so callers can co-schedule
// application events with network activity.
func (n *Network) Clock() *sim.Clock { return n.clock }

// Switch is an ATM switch: it forwards cells between its links using a
// per-(link, VC) routing table.
type Switch struct {
	net    *Network
	name   string
	routes map[routeKey]routeEntry
	// policers holds edge policers for connections entering the
	// network at this switch, keyed by connection id.
	policers map[int]conformer
}

type routeKey struct {
	in *Link
	vc VC
}

type routeEntry struct {
	out *Link
	vc  VC
	cat ServiceCategory
}

// Name reports the switch's name.
func (s *Switch) Name() string { return s.name }

type conformer interface {
	Conforms(now sim.Time) bool
}

// AddSwitch creates a named switch.
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{
		net:      n,
		name:     name,
		routes:   make(map[routeKey]routeEntry),
		policers: make(map[int]conformer),
	}
	n.register(name, s)
	return s
}

// Host is a network endpoint: the attachment point for MITS sites
// (database server, navigator, production center).
type Host struct {
	net  *Network
	name string
	// terminating connections by id, for reassembly dispatch.
	terminating map[int]*Connection
}

// Name reports the host's name.
func (h *Host) Name() string { return h.name }

// AddHost creates a named host.
func (n *Network) AddHost(name string) *Host {
	h := &Host{net: n, name: name, terminating: make(map[int]*Connection)}
	n.register(name, h)
	return h
}

func (n *Network) register(name string, nd node) {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("atm: duplicate node name %q", name))
	}
	n.nodes[name] = nd
}

// Connect joins two nodes with a duplex link of the given line rate
// (bits/s) and propagation delay.
func (n *Network) Connect(a, b node, rateBits float64, prop time.Duration) {
	if rateBits <= 0 {
		panic("atm: link rate must be positive")
	}
	n.adjacent[a] = append(n.adjacent[a], newLink(n, a, b, rateBits, prop, n.BufferCells))
	n.adjacent[b] = append(n.adjacent[b], newLink(n, b, a, rateBits, prop, n.BufferCells))
}

// ConnMetrics accumulates per-connection measurements.
type ConnMetrics struct {
	PDUsSent      int
	PDUsDelivered int
	PDUErrors     int
	CellsSent     int64
	CellsDropped  int64
	Delay         sim.Series // per-PDU end-to-end delay (ns)
}

// Connection is a unidirectional virtual channel connection with a
// traffic contract.
type Connection struct {
	ID  int
	net *Network
	src *Host
	dst *Host
	td  TrafficDescriptor

	path   []*Link
	vcs    []VC
	shaper interface {
		Conforms(now sim.Time) bool
		NextConforming(now sim.Time) sim.Time
	}
	shaped bool

	pending  []Cell // cells waiting for the shaper
	pendHead int    // consumed prefix of pending (amortized dequeue)
	abr      *abrState
	pumping  bool
	seq      int64
	nextPDU  int64
	sentAt   map[int64]sim.Time // PDU id → send instant
	reasm    Reassembler
	deliver  func(pdu []byte, sent, now sim.Time)
	Metrics  ConnMetrics
	closed   bool
}

// OpenOptions tunes connection establishment.
type OpenOptions struct {
	// Unshaped disables host-side traffic shaping, so the source emits
	// at link speed regardless of contract. Used to exercise policing.
	Unshaped bool
	// Deliver is invoked for every successfully reassembled PDU.
	Deliver func(pdu []byte, sent, now sim.Time)
}

// Open establishes a connection from src to dst under the contract,
// running admission control on every link of the shortest path.
func (n *Network) Open(src, dst *Host, td TrafficDescriptor, opts OpenOptions) (*Connection, error) {
	if err := td.Validate(); err != nil {
		return nil, err
	}
	path, err := n.route(src, dst)
	if err != nil {
		return nil, err
	}
	// Connection admission control: every link must have unreserved
	// capacity for the guaranteed rate.
	need := td.GuaranteedRate()
	for _, l := range path {
		if n.reserved[l]+need > l.CellRate() {
			return nil, fmt.Errorf("%w: link %s→%s has %.0f of %.0f cells/s reserved, need %.0f",
				ErrAdmissionDenied, l.from.Name(), l.to.Name(), n.reserved[l], l.CellRate(), need)
		}
	}
	for _, l := range path {
		n.reserved[l] += need
	}

	c := &Connection{
		ID:      n.nextConn,
		net:     n,
		src:     src,
		dst:     dst,
		td:      td,
		path:    path,
		shaped:  !opts.Unshaped,
		sentAt:  make(map[int64]sim.Time),
		deliver: opts.Deliver,
	}
	n.nextConn++

	// Assign one VC per hop and install switch routes.
	for range path {
		c.vcs = append(c.vcs, VC{VPI: 0, VCI: n.allocVCI()})
	}
	for i := 0; i < len(path)-1; i++ {
		sw, ok := path[i].to.(*Switch)
		if !ok {
			return nil, fmt.Errorf("atm: interior node %s is not a switch", path[i].to.Name())
		}
		sw.routes[routeKey{in: path[i], vc: c.vcs[i]}] = routeEntry{out: path[i+1], vc: c.vcs[i+1], cat: td.Category}
	}
	// Edge policer at the first switch on the path.
	if len(path) > 0 {
		if sw, ok := path[0].to.(*Switch); ok {
			sw.policers[c.ID] = newConformer(td)
		}
	}

	switch td.Category {
	case RtVBR, NrtVBR:
		c.shaper = NewDualGCRA(td)
	default:
		c.shaper = NewGCRA(td.PCR, td.CDVT)
	}
	c.initABR()

	dst.terminating[c.ID] = c
	n.conns[c.ID] = c
	return c, nil
}

func newConformer(td TrafficDescriptor) conformer {
	switch td.Category {
	case RtVBR, NrtVBR:
		return NewDualGCRA(td)
	default:
		return NewGCRA(td.PCR, td.CDVT)
	}
}

// Close releases the connection's reserved bandwidth and routes.
func (c *Connection) Close() {
	if c.closed {
		return
	}
	c.closed = true
	need := c.td.GuaranteedRate()
	for i, l := range c.path {
		c.net.reserved[l] -= need
		if i > 0 {
			if sw, ok := l.from.(*Switch); ok {
				delete(sw.routes, routeKey{in: c.path[i-1], vc: c.vcs[i-1]})
			}
		}
	}
	if len(c.path) > 0 {
		if sw, ok := c.path[0].to.(*Switch); ok {
			delete(sw.policers, c.ID)
		}
	}
	delete(c.dst.terminating, c.ID)
	delete(c.net.conns, c.ID)
}

func (n *Network) allocVCI() uint16 {
	v := n.nextVCI
	n.nextVCI++
	if n.nextVCI == 0 {
		n.nextVCI = 32
	}
	return v
}

// route finds the shortest hop path from src to dst via BFS.
func (n *Network) route(src, dst *Host) ([]*Link, error) {
	if src == dst {
		return nil, fmt.Errorf("atm: source and destination host are the same node %q", src.name)
	}
	type hop struct {
		at  node
		via []*Link
	}
	visited := map[node]bool{src: true}
	queue := []hop{{at: src}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, l := range n.adjacent[h.at] {
			if visited[l.to] {
				continue
			}
			path := append(append([]*Link(nil), h.via...), l)
			if l.to == dst {
				return path, nil
			}
			// Only switches forward; a foreign host is a dead end.
			if _, isSwitch := l.to.(*Switch); isSwitch {
				visited[l.to] = true
				queue = append(queue, hop{at: l.to, via: path})
			}
		}
	}
	return nil, ErrNoRoute
}

// Send queues a PDU on the connection. Cells are emitted through the
// traffic shaper (unless the connection is unshaped) onto the first
// link.
func (c *Connection) Send(pdu []byte) error {
	if c.closed {
		return errors.New("atm: send on closed connection")
	}
	cells, err := Segment(c.vcs[0], c.ID, c.seq, pdu)
	if err != nil {
		return err
	}
	c.seq += int64(len(cells))
	id := c.nextPDU
	c.nextPDU++
	now := c.net.clock.Now()
	c.sentAt[id] = now
	c.Metrics.PDUsSent++
	for i := range cells {
		cells[i].PDU = id
	}
	c.pending = append(c.pending, cells...)
	c.pump(now)
	return nil
}

// pendingLen reports cells awaiting the shaper.
func (c *Connection) pendingLen() int { return len(c.pending) - c.pendHead }

// popPending dequeues the next cell, compacting the backing array once
// the consumed prefix dominates so memory stays bounded.
func (c *Connection) popPending() Cell {
	cell := c.pending[c.pendHead]
	c.pendHead++
	if c.pendHead > 1024 && c.pendHead*2 >= len(c.pending) {
		n := copy(c.pending, c.pending[c.pendHead:])
		c.pending = c.pending[:n]
		c.pendHead = 0
	}
	return cell
}

// pump emits pending cells at the shaper's pace.
func (c *Connection) pump(now sim.Time) {
	if c.pumping || c.pendingLen() == 0 {
		return
	}
	if !c.shaped {
		// Unshaped: inject everything immediately; the access link's
		// serialization still paces the wire.
		for c.pendingLen() > 0 {
			c.emit(c.popPending(), now)
		}
		c.pending = c.pending[:0]
		c.pendHead = 0
		return
	}
	c.pumping = true
	next := c.shaper.NextConforming(now)
	c.net.clock.At(next, c.pumpOne)
}

func (c *Connection) pumpOne(now sim.Time) {
	c.pumping = false
	if c.pendingLen() == 0 || c.closed {
		return
	}
	if !c.shaper.Conforms(now) {
		// Shouldn't happen (we waited for NextConforming), but reschedule
		// defensively rather than violate the contract.
		c.pump(now)
		return
	}
	c.emit(c.popPending(), now)
	if c.pendingLen() > 0 {
		c.pumping = true
		c.net.clock.At(c.shaper.NextConforming(now), c.pumpOne)
	}
}

func (c *Connection) emit(cell Cell, now sim.Time) {
	c.Metrics.CellsSent++
	c.path[0].enqueue(cell, c.td.Category, now)
	if c.abr != nil {
		c.maybeSendRM(now)
	}
}

// receive implements node for Switch.
func (s *Switch) receive(cell Cell, on *Link, now sim.Time) {
	// Edge policing: applies to cells entering the network here.
	if s.net.Policing {
		if p, ok := s.policers[cell.ConnID]; ok {
			if !p.Conforms(now) {
				obsGCRAViolations.Inc()
				conn := s.net.conns[cell.ConnID]
				if conn != nil && conn.td.Category.RealTime() {
					s.net.noteDrop(cell.ConnID)
					return // drop non-conforming real-time cells
				}
				cell.CLP = 1 // tag best-effort overflow
			}
		}
	}
	ent, ok := s.routes[routeKey{in: on, vc: cell.VC}]
	if !ok {
		// Unroutable cell: count against its connection and discard.
		s.net.noteDrop(cell.ConnID)
		return
	}
	cell.VC = ent.vc
	s.net.clock.After(switchLatency, func(t sim.Time) {
		ent.out.enqueue(cell, ent.cat, t)
	})
}

// receive implements node for Host: terminate and reassemble.
func (h *Host) receive(cell Cell, _ *Link, now sim.Time) {
	conn, ok := h.terminating[cell.ConnID]
	if !ok {
		return // connection torn down while cells were in flight
	}
	pdu, done := conn.reasm.Push(cell)
	if !cell.EndOfPDU() {
		return
	}
	sent, seen := conn.sentAt[cell.PDU]
	delete(conn.sentAt, cell.PDU)
	if !done {
		conn.Metrics.PDUErrors++
		return
	}
	conn.Metrics.PDUsDelivered++
	if seen {
		conn.Metrics.Delay.AddDuration(now.Sub(sent))
	}
	if conn.deliver != nil {
		conn.deliver(pdu, sent, now)
	}
}

func (n *Network) noteDrop(connID int) {
	if c, ok := n.conns[connID]; ok {
		c.Metrics.CellsDropped++
	}
}
