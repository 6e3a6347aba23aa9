package facilitator

import (
	"mits/internal/obs"
	"mits/internal/transport"
)

// Network method names of the facilitator service.
const (
	MethodOpenRoom = "fac.OpenRoom"
	MethodJoin     = "fac.Join"
	MethodSay      = "fac.Say"
	MethodMessages = "fac.Messages"
	MethodRooms    = "fac.Rooms"
	MethodRead     = "fac.Read"
	MethodBoards   = "fac.Boards"
	MethodSend     = "fac.Send"
	MethodInbox    = "fac.Inbox"
)

type roomMemberReq struct{ Room, Member string }
type sayReq struct{ Room, Member, Text string }
type pollReq struct {
	Name  string
	After int
}
type mailReq struct{ From, To, Subject, Body string }

// RegisterService exposes a Facilitator on a transport mux.
func RegisterService(m *transport.Mux, f *Facilitator) {
	transport.Route(m, MethodOpenRoom, func(name string) (struct{}, error) { return struct{}{}, f.OpenRoom(name) })
	transport.Route(m, MethodJoin, func(req roomMemberReq) (struct{}, error) {
		return struct{}{}, f.Join(req.Room, req.Member)
	})
	transport.Route(m, MethodSay, func(req sayReq) (int, error) { return f.Say(req.Room, req.Member, req.Text) })
	transport.Route(m, MethodMessages, func(req pollReq) ([]ChatMessage, error) {
		return f.Messages(req.Name, req.After)
	})
	transport.Route(m, MethodRooms, func(struct{}) ([]string, error) { return f.Rooms(), nil })
	transport.Route(m, MethodRead, func(req pollReq) ([]Post, error) { return f.Read(req.Name, req.After) })
	transport.Route(m, MethodBoards, func(struct{}) ([]string, error) { return f.Boards(), nil })
	transport.Route(m, MethodSend, func(req mailReq) (int, error) {
		return f.Send(req.From, req.To, req.Subject, req.Body)
	})
	transport.Route(m, MethodInbox, func(recipient string) ([]Mail, error) { return f.Inbox(recipient), nil })
}

// Client is the navigator-side view of the facilitator service.
type Client struct {
	C transport.Client
}

// invoke is the typed call every stub below makes.
func (c Client) invoke(method string, req, resp any) error {
	return transport.Invoke(c.C, obs.SpanContext{}, method, req, resp)
}

// OpenRoom creates a discussion room.
func (c Client) OpenRoom(name string) error {
	return c.invoke(MethodOpenRoom, name, nil)
}

// Join enters a room.
func (c Client) Join(room, member string) error {
	return c.invoke(MethodJoin, roomMemberReq{Room: room, Member: member}, nil)
}

// Say posts a message.
func (c Client) Say(room, member, text string) (seq int, err error) {
	err = c.invoke(MethodSay, sayReq{Room: room, Member: member, Text: text}, &seq)
	return seq, err
}

// Messages polls a room.
func (c Client) Messages(room string, after int) (msgs []ChatMessage, err error) {
	err = c.invoke(MethodMessages, pollReq{Name: room, After: after}, &msgs)
	return msgs, err
}

// Rooms lists open rooms.
func (c Client) Rooms() (rooms []string, err error) {
	err = c.invoke(MethodRooms, nil, &rooms)
	return rooms, err
}

// Read polls a board.
func (c Client) Read(board string, after int) (posts []Post, err error) {
	err = c.invoke(MethodRead, pollReq{Name: board, After: after}, &posts)
	return posts, err
}

// Boards lists news groups.
func (c Client) Boards() (boards []string, err error) {
	err = c.invoke(MethodBoards, nil, &boards)
	return boards, err
}

// SendMail delivers a message to a mailbox.
func (c Client) SendMail(from, to, subject, body string) (seq int, err error) {
	err = c.invoke(MethodSend, mailReq{From: from, To: to, Subject: subject, Body: body}, &seq)
	return seq, err
}

// Inbox fetches a mailbox.
func (c Client) Inbox(recipient string) (mail []Mail, err error) {
	err = c.invoke(MethodInbox, recipient, &mail)
	return mail, err
}
