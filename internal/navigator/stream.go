package navigator

import (
	"fmt"
	"time"

	"mits/internal/atm"
	"mits/internal/media"
	"mits/internal/obs"
	"mits/internal/sim"
)

// This file implements real-time video streaming from the content
// server to the navigator over an ATM connection — the capability the
// paper's broadband choice exists for (§3.3: "for obtaining good
// quality of service in real time presentation of dynamic media such as
// video and audio, we suggest broadband network to be chosen").
//
// The server paces MPEG frames at the stream's frame rate; the player
// buffers a start-up window and then consumes one frame per frame
// period, counting a deadline miss whenever the next frame has not
// arrived by its presentation time. Experiment E17 runs this over an
// ATM CBR contract and over a congested best-effort path and compares
// miss rates and jitter.

// StreamStats summarizes one playback.
type StreamStats struct {
	Frames         int
	Delivered      int
	DeadlineMisses int
	StartupDelay   time.Duration
	// Jitter is the per-frame arrival deviation from the ideal paced
	// schedule.
	Jitter sim.Series
	// Degradation accounting (StreamVideoAdaptive): frames sent at
	// reduced size, B-frames skipped outright, and the highest ladder
	// rung the stream was forced onto.
	Degraded int
	Skipped  int
	MaxLevel DegradeLevel
}

// MissRate reports the fraction of frames missing their deadline.
func (s *StreamStats) MissRate() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.DeadlineMisses) / float64(s.Frames)
}

// StreamPlayer receives a paced MPEG stream on an ATM connection and
// measures playback quality.
type StreamPlayer struct {
	clock   *sim.Clock
	buffer  time.Duration // start-up buffering window
	stats   StreamStats
	started bool
	base    sim.Time   // arrival time of the first frame
	arrived []sim.Time // per-frame arrival instants
}

// NewStreamPlayer builds a player with the given start-up buffer.
func NewStreamPlayer(clock *sim.Clock, buffer time.Duration) *StreamPlayer {
	return &StreamPlayer{clock: clock, buffer: buffer}
}

// Deliver implements the connection's deliver callback: one PDU per
// frame.
func (p *StreamPlayer) Deliver(pdu []byte, _, now sim.Time) {
	if !p.started {
		p.started = true
		p.base = now
	}
	p.arrived = append(p.arrived, now)
	p.stats.Delivered++
}

// Finish scores the playback once the clock has drained: frame i's
// presentation deadline is firstArrival + buffer + i·frameDur.
func (p *StreamPlayer) Finish(frames []media.Frame) *StreamStats {
	defer func() {
		obs.GetCounter("navigator_frames_total").Add(int64(p.stats.Frames))
		obs.GetCounter("navigator_frames_delivered_total").Add(int64(p.stats.Delivered))
		obs.GetCounter("navigator_deadline_misses_total").Add(int64(p.stats.DeadlineMisses))
		// Playback span: carries the deadline-miss verdict into the trace
		// pipeline, where the collector's tail sampler always retains
		// misses (obs.DeadlineMissPrefix). Playback runs on virtual time,
		// so the span's wall duration is incidental — the error is the
		// signal.
		sp := obs.StartSpan("navigator.playback", "internal")
		if p.stats.DeadlineMisses > 0 {
			sp.End(fmt.Errorf("%s%d of %d frames", obs.DeadlineMissPrefix, p.stats.DeadlineMisses, p.stats.Frames))
		} else {
			sp.End(nil)
		}
	}()
	p.stats.Frames = len(frames)
	if len(frames) == 0 || !p.started {
		p.stats.DeadlineMisses = p.stats.Frames
		return &p.stats
	}
	p.stats.StartupDelay = p.buffer
	playStart := p.base.Add(p.buffer)
	for i, f := range frames {
		deadline := playStart.Add(f.PTS)
		if i >= len(p.arrived) {
			p.stats.DeadlineMisses++
			continue
		}
		if p.arrived[i] > deadline {
			p.stats.DeadlineMisses++
		}
		// Jitter relative to the paced schedule (first frame anchors).
		ideal := p.base.Add(f.PTS)
		dev := p.arrived[i].Sub(ideal)
		if dev < 0 {
			dev = -dev
		}
		p.stats.Jitter.AddDuration(dev)
	}
	return &p.stats
}

// StreamVideo plays an encoded MPEG object from server to client over
// the given traffic contract, returning playback statistics. The
// server sends each frame as one AAL5 message at the frame's PTS; the
// caller provides a network whose clock will be run to completion.
func StreamVideo(n *atm.Network, server, client *atm.Host, td atm.TrafficDescriptor, data []byte, buffer time.Duration) (*StreamStats, error) {
	frames, _, err := media.ParseMPEG(data)
	if err != nil {
		return nil, fmt.Errorf("navigator: stream source: %w", err)
	}
	player := NewStreamPlayer(n.Clock(), buffer)
	conn, err := n.Open(server, client, td, atm.OpenOptions{Deliver: player.Deliver})
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	// Pace the server: frame i leaves at its PTS. Frames larger than
	// the AAL5 limit are split (the player counts PDUs per frame, so
	// send exactly one PDU per frame: cap frame payload).
	for _, f := range frames {
		f := f
		n.Clock().At(sim.Zero.Add(f.PTS), func(sim.Time) {
			size := f.Size
			if size > atm.MaxPDUSize {
				size = atm.MaxPDUSize
			}
			conn.Send(make([]byte, size)) //nolint:errcheck // loss shows up as a deadline miss
		})
	}
	n.Clock().Run()
	return player.Finish(frames), nil
}

// DegradeLevel is a rung on the graceful-degradation ladder the
// adaptive streamer climbs when the network falls behind: first trade
// picture quality (smaller frames), then trade frame rate (skip
// B-frames — safe, nothing references them), never stall.
type DegradeLevel int

// The ladder, mildest first.
const (
	DegradeNone    DegradeLevel = iota // full-quality frames
	DegradeReduced                     // half-size frames (coarser quantization)
	DegradeSkipB                       // reduced size and B-frames dropped
)

func (l DegradeLevel) String() string {
	switch l {
	case DegradeNone:
		return "none"
	case DegradeReduced:
		return "reduced"
	case DegradeSkipB:
		return "skip-b"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// StreamVideoAdaptive is StreamVideo with the degradation ladder: at
// each frame's send time the server inspects its backlog (frames sent
// but not yet delivered). When the backlog is worth more playback time
// than the client's start-up buffer, stalling is inevitable at current
// quality, so the server climbs a rung — halving frame bytes, then
// also skipping B-frames; when the backlog fully drains it steps back
// down. Skipped frames are excluded from deadline scoring (they were
// never promised) and reported in StreamStats.Skipped.
func StreamVideoAdaptive(n *atm.Network, server, client *atm.Host, td atm.TrafficDescriptor, data []byte, buffer time.Duration) (*StreamStats, error) {
	frames, meta, err := media.ParseMPEG(data)
	if err != nil {
		return nil, fmt.Errorf("navigator: stream source: %w", err)
	}
	frameDur := time.Second / time.Duration(meta.FrameRate)
	player := NewStreamPlayer(n.Clock(), buffer)
	conn, err := n.Open(server, client, td, atm.OpenOptions{Deliver: player.Deliver})
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	level := DegradeNone
	maxLevel := DegradeNone
	degraded, skipped := 0, 0
	var sent []media.Frame
	for _, f := range frames {
		f := f
		n.Clock().At(sim.Zero.Add(f.PTS), func(sim.Time) {
			// Backlog in playback time; the clock is single-threaded, so
			// reading the player's delivery count here is safe.
			backlog := time.Duration(len(sent)-player.stats.Delivered) * frameDur
			switch {
			case backlog > buffer && level < DegradeSkipB:
				level++
				obs.GetCounter("navigator_degrade_escalations_total", "to", level.String()).Inc()
			case backlog == 0 && level > DegradeNone:
				level--
			}
			if level > maxLevel {
				maxLevel = level
			}
			if level >= DegradeSkipB && f.Kind == media.BFrame {
				skipped++
				obs.GetCounter("navigator_frames_skipped_total").Inc()
				return
			}
			size := f.Size
			if level >= DegradeReduced {
				size /= 2
				degraded++
				obs.GetCounter("navigator_frames_degraded_total").Inc()
			}
			if size > atm.MaxPDUSize {
				size = atm.MaxPDUSize
			}
			sent = append(sent, f)
			conn.Send(make([]byte, size)) //nolint:errcheck // loss shows up as a deadline miss
		})
	}
	n.Clock().Run()
	// Score against what was actually promised (sent frames, in order);
	// report totals over the whole source.
	stats := player.Finish(sent)
	stats.Frames = len(frames)
	stats.Degraded = degraded
	stats.Skipped = skipped
	stats.MaxLevel = maxLevel
	return stats, nil
}
