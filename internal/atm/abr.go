package atm

import (
	"time"

	"mits/internal/sim"
)

// ABR flow control (ATM Forum TM 4.0, simplified). An ABR source sends
// a resource-management (RM) cell every Nrm data cells carrying an
// explicit rate (ER). Switches on the path reduce the ER when their
// ABR queue is congested; the destination turns the RM cell around and
// the source adopts the marked rate as its allowed cell rate (ACR),
// bounded by [MCR, PCR].
//
// Simplification: the backward RM path is modelled as a delayed
// callback to the source after one extra path traversal time, rather
// than as cells on a reverse connection — the feedback latency is
// preserved, the reverse-direction cell accounting is not.

// RM-cell protocol parameters.
const (
	// Nrm is the data-cell interval between RM cells.
	Nrm = 32
	// abrRateDecrease is the multiplicative ER cut applied by a
	// congested switch.
	abrRateDecrease = 0.75
	// abrRateIncrease is the additive ACR increase (fraction of PCR)
	// granted when the path reports no congestion.
	abrRateIncrease = 0.05
	// abrCongestionFraction of the ABR queue limit that marks a switch
	// as congested.
	abrCongestionFraction = 0.25
)

// abrState tracks one ABR connection's rate control at the source.
type abrState struct {
	acr       float64 // allowed cell rate (cells/s)
	mcr       float64 // minimum cell rate floor
	pcr       float64 // ceiling
	dataCells int     // cells since the last RM cell
	rtt       time.Duration
	// RateChanges counts ACR adjustments, for tests/experiments.
	RateChanges int
}

// initABR prepares rate control for an ABR connection: sources start
// at a conservative initial cell rate.
func (c *Connection) initABR() {
	if c.td.Category != ABR {
		return
	}
	mcr := c.td.SCR // reuse SCR field as MCR for ABR contracts
	if mcr <= 0 {
		mcr = c.td.PCR / 100
	}
	c.abr = &abrState{
		acr: c.td.PCR / 10, // ICR: one tenth of peak
		mcr: mcr,
		pcr: c.td.PCR,
		rtt: c.pathRTT(),
	}
	c.shaper = NewGCRA(c.abr.acr, c.td.CDVT)
}

// pathRTT estimates the forward+backward traversal time of the path.
func (c *Connection) pathRTT() time.Duration {
	var d time.Duration
	for _, l := range c.path {
		d += l.prop + l.serial
	}
	return 2 * (d + time.Duration(len(c.path))*switchLatency)
}

// maybeSendRM injects an RM probe every Nrm data cells. The probe
// samples ABR congestion on every link of the path *now* and schedules
// the source's rate adoption one RTT later.
func (c *Connection) maybeSendRM(now sim.Time) {
	st := c.abr
	st.dataCells++
	if st.dataCells < Nrm {
		return
	}
	st.dataCells = 0
	congested := false
	for _, l := range c.path {
		// A switch marks congestion when its ABR queue runs deep.
		if float64(len(l.queues[ABR])) > abrCongestionFraction*float64(l.limit) {
			congested = true
		}
	}
	// AIMD on the current allowed rate: multiplicative decrease under
	// congestion, additive increase otherwise.
	var er float64
	if congested {
		er = st.acr * abrRateDecrease
	} else {
		er = st.acr + abrRateIncrease*st.pcr
	}
	if er > st.pcr {
		er = st.pcr
	}
	if er < st.mcr {
		er = st.mcr
	}
	newRate := er
	c.net.clock.After(st.rtt, func(sim.Time) {
		if c.closed {
			return
		}
		if newRate != st.acr {
			st.acr = newRate
			st.RateChanges++
			c.shaper = NewGCRA(st.acr, c.td.CDVT)
		}
	})
}

// RateChanges reports how many times ABR feedback adjusted the rate.
func (c *Connection) RateChanges() int {
	if c.abr == nil {
		return 0
	}
	return c.abr.RateChanges
}

// ABRContract builds an available-bit-rate contract: PCR is the ceiling
// the source may reach, MCR (carried in the SCR field) the guaranteed
// floor that admission control reserves.
func ABRContract(peakBits, minBits float64) TrafficDescriptor {
	return TrafficDescriptor{
		Category: ABR,
		PCR:      peakBits / (CellPayloadSize * 8),
		SCR:      minBits / (CellPayloadSize * 8),
		CDVT:     time.Millisecond,
	}
}
