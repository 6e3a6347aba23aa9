// Package conference implements the multimedia conferencing facility of
// §5.2.1 ("the meeting and discussing module provides an environment
// for the students and the on-line consultants to communicate ...
// E-mail, telephone, and multimedia conferencing facilities are
// provided") and §3.1.1's requirement that "communications between the
// students and the professors should be achieved by means of real-time
// multimedia conferencing".
//
// A conference is a pair of full-duplex real-time streams over the ATM
// simulator: a CBR audio channel (64 kb/s voice, 20 ms frames) and a
// VBR video channel per direction. The module measures the two numbers
// conversation quality lives and dies by: mouth-to-ear latency and
// frame loss.
package conference

import (
	"fmt"
	"time"

	"mits/internal/atm"
	"mits/internal/sim"
)

// Audio parameters: 64 kb/s PCM voice in 20 ms frames (160 bytes).
const (
	audioFrameInterval = 20 * time.Millisecond
	audioFrameBytes    = 160
	audioBitRate       = 64000
)

// Video parameters: a small conference window.
const (
	videoFrameInterval = 100 * time.Millisecond // 10 fps talking head
	videoFrameBytes    = 3000                   // ≈240 kb/s
	videoBitRate       = 8 * videoFrameBytes * 10
)

// latencyBudget is the mouth-to-ear delay above which conversation
// degrades (the classic 150 ms interactive threshold).
const latencyBudget = 150 * time.Millisecond

// StreamQuality summarizes one direction of one medium.
type StreamQuality struct {
	framesSent      int
	framesDelivered int
	Latency         sim.Series // per-frame mouth-to-ear delay (ns)
	lateFrames      int        // frames beyond the latency budget
}

// LossRate reports the fraction of frames lost.
func (q *StreamQuality) LossRate() float64 {
	if q.framesSent == 0 {
		return 0
	}
	return float64(q.framesSent-q.framesDelivered) / float64(q.framesSent)
}

// LateRate reports the fraction of delivered frames past the budget.
func (q *StreamQuality) LateRate() float64 {
	if q.framesDelivered == 0 {
		return 0
	}
	return float64(q.lateFrames) / float64(q.framesDelivered)
}

// PartyQuality groups the streams one participant receives.
type PartyQuality struct {
	Audio StreamQuality
	video StreamQuality
}

// Session is a two-party conference between hosts on an ATM network.
type Session struct {
	net      *atm.Network
	duration time.Duration

	// Received quality per party (index 0 = the first host's inbound).
	Quality [2]PartyQuality
}

// Options tunes a conference session.
type Options struct {
	// Duration of the call.
	Duration time.Duration
	// VideoEnabled adds the video streams (audio-only otherwise).
	VideoEnabled bool
	// BestEffort opens all streams as UBR instead of reserved
	// contracts — the ablation showing why conferencing needs QoS.
	BestEffort bool
}

// Dial sets up the conference between two hosts and schedules all frame
// transmissions; run the network's clock to completion and then read
// Quality.
func Dial(n *atm.Network, a, b *atm.Host, opts Options) (*Session, error) {
	if opts.Duration <= 0 {
		opts.Duration = 30 * time.Second
	}
	s := &Session{net: n, duration: opts.Duration}

	audioContract := atm.CBRContract(audioBitRate * 1.2) // header room
	videoContract := atm.VBRContract(videoBitRate, videoBitRate*4, 100)
	if opts.BestEffort {
		audioContract = atm.UBRContract(audioBitRate * 1.2)
		videoContract = atm.UBRContract(videoBitRate * 1.2)
	}

	type dir struct {
		from, to *atm.Host
		party    int // receiving party index
	}
	dirs := []dir{{a, b, 1}, {b, a, 0}}
	for _, d := range dirs {
		d := d
		audio, err := n.Open(d.from, d.to, audioContract, atm.OpenOptions{
			Deliver: func(pdu []byte, sent, now sim.Time) {
				s.receive(&s.Quality[d.party].Audio, sent, now)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("conference: audio %s→%s: %w", d.from.Name(), d.to.Name(), err)
		}
		s.schedule(audio, audioFrameInterval, audioFrameBytes, &s.Quality[d.party].Audio)

		if opts.VideoEnabled {
			video, err := n.Open(d.from, d.to, videoContract, atm.OpenOptions{
				Deliver: func(pdu []byte, sent, now sim.Time) {
					s.receive(&s.Quality[d.party].video, sent, now)
				},
			})
			if err != nil {
				return nil, fmt.Errorf("conference: video %s→%s: %w", d.from.Name(), d.to.Name(), err)
			}
			s.schedule(video, videoFrameInterval, videoFrameBytes, &s.Quality[d.party].video)
		}
	}
	return s, nil
}

func (s *Session) schedule(conn *atm.Connection, interval time.Duration, size int, q *StreamQuality) {
	frames := int(s.duration / interval)
	for i := 0; i < frames; i++ {
		at := sim.Zero.Add(time.Duration(i) * interval)
		s.net.Clock().At(at, func(sim.Time) {
			if conn.Send(make([]byte, size)) == nil {
				q.framesSent++
			}
		})
	}
}

func (s *Session) receive(q *StreamQuality, sent, now sim.Time) {
	q.framesDelivered++
	lat := now.Sub(sent)
	q.Latency.AddDuration(lat)
	if lat > latencyBudget {
		q.lateFrames++
	}
}

// Usable reports whether the received quality supports conversation:
// ≤2% audio loss and ≤5% of frames past the latency budget, both ways.
func (s *Session) Usable() bool {
	for i := range s.Quality {
		a := &s.Quality[i].Audio
		if a.LossRate() > 0.02 || a.LateRate() > 0.05 {
			return false
		}
	}
	return true
}
