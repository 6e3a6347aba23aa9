// Package baseline implements the three TeleLearning delivery models the
// paper surveys in §1.3 — broadcasting (TV / SIDL), CD-ROM/PC, and
// narrowband network (Internet/WWW) — plus an analytic stand-in for the
// broadband MITS model. Experiment E16 drives all four through the same
// student workload and reports the comparison the paper argues in prose:
// MITS combines the accessibility of the network models with the
// interactivity of the PC model and the media quality of broadcast.
package baseline

import (
	"fmt"
	"time"

	"mits/internal/sim"
)

// Model is one courseware delivery model under comparison.
type Model interface {
	Name() string
	// AccessDelay is the time between a student deciding to take a
	// course at instant now and the presentation being able to start.
	AccessDelay(now sim.Time, courseBytes int64) time.Duration
	// InteractionRTT is the latency of one interactive request during
	// learning; ok=false means the model cannot support interaction at
	// all (broadcast viewers cannot steer playback).
	InteractionRTT() (time.Duration, bool)
	// UpdateDelay is the time for refreshed course content to reach the
	// student ("just-in-time knowledge", §1.3.2).
	UpdateDelay() time.Duration
	// VideoSupport is the fraction of real-time playback achievable for
	// a stream of the given bit rate (1 = smooth, 0.5 = stalls half the
	// time).
	VideoSupport(bitRate float64) float64
}

// Broadcasting models the TV / satellite distance-learning systems of
// §1.3.1: rich media, but learners "have to follow the time schedule of
// the broadcasting center" and are "always in a passive position".
type Broadcasting struct {
	// Period between broadcasts of the same lecture (e.g. one week).
	Period time.Duration
	// offset of the broadcast slot within the period.
	offset time.Duration
}

// Name implements Model.
func (b Broadcasting) Name() string { return "broadcasting" }

// AccessDelay waits for the next scheduled slot.
func (b Broadcasting) AccessDelay(now sim.Time, _ int64) time.Duration {
	if b.Period <= 0 {
		return 0
	}
	phase := (time.Duration(now) - b.offset) % b.Period
	if phase < 0 {
		phase += b.Period
	}
	if phase == 0 {
		return 0
	}
	return b.Period - phase
}

// InteractionRTT reports no interaction: viewers cannot adjust "the
// content or the speed to fit their own demands".
func (b Broadcasting) InteractionRTT() (time.Duration, bool) { return 0, false }

// UpdateDelay is the next broadcast cycle.
func (b Broadcasting) UpdateDelay() time.Duration { return b.Period }

// VideoSupport is perfect — television's one strength.
func (b Broadcasting) VideoSupport(float64) float64 { return 1 }

// CDROM models the CD-ROM/PC delivery of §1.3.2: interactive and local,
// but static, capacity-bound, and updated only by shipping a new disc.
type CDROM struct {
	// Shipping is the order-to-delivery time for a disc.
	Shipping time.Duration
	// capacity is the disc capacity (650 MB for the era's CD-ROM).
	capacity int64
	// owned reports whether the student already has the disc.
	owned bool
}

// defaultCDCapacity is a 650 MB disc.
const defaultCDCapacity = 650 << 20

// Name implements Model.
func (c CDROM) Name() string { return "cdrom-pc" }

// AccessDelay is shipping time for the first access, then local.
// Courses beyond the disc capacity cannot be delivered at all; the
// model reports an infinite (one-year) delay to keep the comparison
// numeric.
func (c CDROM) AccessDelay(_ sim.Time, courseBytes int64) time.Duration {
	cap := c.capacity
	if cap == 0 {
		cap = defaultCDCapacity
	}
	if courseBytes > cap {
		return 365 * 24 * time.Hour
	}
	if c.owned {
		return 0
	}
	return c.Shipping
}

// InteractionRTT is local disc latency.
func (c CDROM) InteractionRTT() (time.Duration, bool) { return 150 * time.Millisecond, true }

// UpdateDelay ships a new disc: "the only way to update the content of
// the CD-ROM is to throw away the old one, and order a new one".
func (c CDROM) UpdateDelay() time.Duration { return c.Shipping }

// VideoSupport is full for local playback.
func (c CDROM) VideoSupport(float64) float64 { return 1 }

// Narrowband models the era's Internet/WWW delivery of §1.3.3:
// accessible and interactive, but "restricted by the network
// capability ... the limitations for delivering real multimedia
// information have not been broken through".
type Narrowband struct {
	// Bandwidth in bits/s (28.8 kb/s modem, 128 kb/s ISDN).
	Bandwidth float64
	// RTT is the request round-trip time.
	RTT time.Duration
}

// Name implements Model.
func (n Narrowband) Name() string { return fmt.Sprintf("narrowband-%.0fkbps", n.Bandwidth/1000) }

// AccessDelay downloads the course scenario before starting.
func (n Narrowband) AccessDelay(_ sim.Time, courseBytes int64) time.Duration {
	if n.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(courseBytes*8)/n.Bandwidth*float64(time.Second)) + n.RTT
}

// InteractionRTT is the network round trip.
func (n Narrowband) InteractionRTT() (time.Duration, bool) { return n.RTT, true }

// UpdateDelay is one round trip: content lives on the server.
func (n Narrowband) UpdateDelay() time.Duration { return n.RTT }

// VideoSupport is the bandwidth fraction of the stream rate.
func (n Narrowband) VideoSupport(bitRate float64) float64 {
	if bitRate <= 0 {
		return 1
	}
	f := n.Bandwidth / bitRate
	if f > 1 {
		return 1
	}
	return f
}

// Broadband is the analytic MITS reference point: ATM-grade bandwidth
// with QoS reservation. The measured version of this row comes from the
// real simulator modules in experiment E16/E17; this model exists so
// the four-way table has a closed-form column to sanity-check against.
type Broadband struct {
	// Bandwidth in bits/s (155 Mb/s OC-3).
	Bandwidth float64
	// RTT across the metropolitan ATM network.
	RTT time.Duration
}

// Name implements Model.
func (b Broadband) Name() string { return "mits-broadband" }

// AccessDelay downloads the scenario (content streams on demand).
func (b Broadband) AccessDelay(_ sim.Time, courseBytes int64) time.Duration {
	if b.Bandwidth <= 0 {
		return b.RTT
	}
	return time.Duration(float64(courseBytes*8)/b.Bandwidth*float64(time.Second)) + b.RTT
}

// InteractionRTT is the ATM round trip.
func (b Broadband) InteractionRTT() (time.Duration, bool) { return b.RTT, true }

// UpdateDelay is one round trip.
func (b Broadband) UpdateDelay() time.Duration { return b.RTT }

// VideoSupport is full for any stream within the reserved contract.
func (b Broadband) VideoSupport(bitRate float64) float64 {
	if bitRate <= b.Bandwidth {
		return 1
	}
	return b.Bandwidth / bitRate
}

// Comparison is one row of the E16 table.
type Comparison struct {
	Model             string
	MeanAccessDelay   time.Duration
	Interactive       bool
	InteractionRTT    time.Duration
	UpdateDelay       time.Duration
	MPEG1VideoSupport float64
}

// Compare drives each model with students arriving at the given
// instants wanting a course of courseBytes, and tabulates the metrics.
func Compare(models []Model, arrivals []sim.Time, courseBytes int64) []Comparison {
	out := make([]Comparison, 0, len(models))
	for _, m := range models {
		var acc sim.Series
		for _, at := range arrivals {
			acc.AddDuration(m.AccessDelay(at, courseBytes))
		}
		rtt, ok := m.InteractionRTT()
		out = append(out, Comparison{
			Model:             m.Name(),
			MeanAccessDelay:   time.Duration(acc.Mean()),
			Interactive:       ok,
			InteractionRTT:    rtt,
			UpdateDelay:       m.UpdateDelay(),
			MPEG1VideoSupport: m.VideoSupport(1.5e6),
		})
	}
	return out
}
