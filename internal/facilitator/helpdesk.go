package facilitator

import (
	"fmt"
	"time"

	"mits/internal/sim"
)

// HelpDesk is a virtual-time queueing model of help-on-demand: K
// consultants answer questions; excess questions wait in FIFO order.
//
// With K=3 and no balking it reproduces the SIDL satellite system's
// telephone queue ("only three calls can be taken at a time, others
// will be put into a queue", §1.3.1); with more consultants it models
// the MITS on-line facilitator. Experiment E20 measures the waiting
// times the thesis complains about ("this could be frustrating for a
// distant student trying to get a word in").
type HelpDesk struct {
	clock       *sim.Clock
	consultants int
	busy        int
	queue       []*Ticket

	// Service generates per-question answer durations.
	Service func() time.Duration

	// Metrics.
	Wait     sim.Series // time from Ask to a consultant picking up (ns)
	Answered int
	MaxQueue int
}

// Ticket is one outstanding question.
type Ticket struct {
	Student  string
	Question string
	asked    sim.Time
	// Done is invoked (in virtual time) when the answer completes.
	Done func(waited, total time.Duration)
}

// NewHelpDesk creates a desk with K consultants on the given clock.
func NewHelpDesk(clock *sim.Clock, consultants int, service func() time.Duration) (*HelpDesk, error) {
	if consultants < 1 {
		return nil, fmt.Errorf("facilitator: help desk needs ≥1 consultant")
	}
	if service == nil {
		return nil, fmt.Errorf("facilitator: help desk needs a service-time model")
	}
	return &HelpDesk{clock: clock, consultants: consultants, Service: service}, nil
}

// Ask submits a question at the current virtual instant.
func (h *HelpDesk) Ask(t *Ticket) {
	t.asked = h.clock.Now()
	if h.busy < h.consultants {
		h.serve(t)
		return
	}
	h.queue = append(h.queue, t)
	if len(h.queue) > h.MaxQueue {
		h.MaxQueue = len(h.queue)
	}
}

func (h *HelpDesk) serve(t *Ticket) {
	h.busy++
	waited := h.clock.Now().Sub(t.asked)
	h.Wait.AddDuration(waited)
	dur := h.Service()
	h.clock.After(dur, func(now sim.Time) {
		h.busy--
		h.Answered++
		if t.Done != nil {
			t.Done(waited, now.Sub(t.asked))
		}
		if len(h.queue) > 0 {
			next := h.queue[0]
			copy(h.queue, h.queue[1:])
			h.queue = h.queue[:len(h.queue)-1]
			h.serve(next)
		}
	})
}
