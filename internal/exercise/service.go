package exercise

import (
	"mits/internal/obs"
	"mits/internal/transport"
)

// Network method names of the exercise service.
const (
	MethodSetsFor     = "ex.SetsFor"
	MethodPresentable = "ex.Presentable"
	MethodSubmit      = "ex.Submit"
	MethodContest     = "ex.Contest"
)

type submitReq struct {
	SetID   string
	Student string
	Answers map[string]string
}

// RegisterService exposes a grade book to navigators on a transport
// mux. Sets are added where the book lives (Book.AddSet).
func RegisterService(m *transport.Mux, b *Book) {
	transport.Route(m, MethodSetsFor, func(course string) ([]string, error) { return b.SetsFor(course), nil })
	transport.Route(m, MethodPresentable, b.Presentable)
	transport.Route(m, MethodSubmit, func(req submitReq) (*Grade, error) {
		return b.Submit(req.SetID, req.Student, req.Answers)
	})
	transport.Route(m, MethodContest, func(course string) ([]Standing, error) { return b.Contest(course), nil })
}

// Client is the remote view of the exercise service.
type Client struct {
	C transport.Client
}

// invoke is the typed call every stub below makes.
func (c Client) invoke(method string, req, resp any) error {
	return transport.Invoke(c.C, obs.SpanContext{}, method, req, resp)
}

// SetsFor lists a course's sets.
func (c Client) SetsFor(course string) (ids []string, err error) {
	err = c.invoke(MethodSetsFor, course, &ids)
	return ids, err
}

// Presentable fetches a set with answers stripped.
func (c Client) Presentable(id string) (*Set, error) {
	var s Set
	return &s, c.invoke(MethodPresentable, id, &s)
}

// Submit grades the student's answers.
func (c Client) Submit(setID, student string, answers map[string]string) (*Grade, error) {
	var g Grade
	return &g, c.invoke(MethodSubmit, submitReq{SetID: setID, Student: student, Answers: answers}, &g)
}

// Contest fetches a course's ranking.
func (c Client) Contest(course string) (ranks []Standing, err error) {
	err = c.invoke(MethodContest, course, &ranks)
	return ranks, err
}
