// Package facilitator implements the on-line facilitator site of §3.2
// and the communication features of §5.2.1: meeting and discussion
// rooms ("the students can use this facility to ask questions to the
// on-line consultants, or discuss ... with other students"), the
// bulletin board (news groups), e-mail, and the help-on-demand desk
// whose queueing behaviour experiment E20 compares against the SIDL
// satellite system's three-line phone queue (§1.3.1).
package facilitator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound is returned for unknown rooms, boards or mailboxes.
var ErrNotFound = errors.New("facilitator: not found")

// ChatMessage is one utterance in a discussion room.
type ChatMessage struct {
	Seq    int
	Author string
	Text   string
}

// Room is a meeting/discussion space.
type room struct {
	members  map[string]bool
	messages []ChatMessage
}

// Post is one bulletin-board article ("announcement of new courses or
// features of the virtual school, analysis of the common mistakes in an
// exercise").
type Post struct {
	Seq     int
	Author  string
	Subject string
	Body    string
}

// Mail is one e-mail message.
type Mail struct {
	Seq     int
	From    string
	To      string
	Subject string
	Body    string
}

// Facilitator is the communication hub. Safe for concurrent use.
type Facilitator struct {
	mu     sync.RWMutex
	rooms  map[string]*room
	boards map[string][]Post
	mail   map[string][]Mail
	seq    int
}

// New creates an empty facilitator site.
func New() *Facilitator {
	return &Facilitator{
		rooms:  make(map[string]*room),
		boards: make(map[string][]Post),
		mail:   make(map[string][]Mail),
	}
}

// nextSeqLocked issues the next sequence number; callers hold f.mu.
func (f *Facilitator) nextSeqLocked() int {
	f.seq++
	return f.seq
}

// ---- meeting and discussing ----

// OpenRoom creates a discussion room if absent.
func (f *Facilitator) OpenRoom(name string) error {
	if name == "" {
		return fmt.Errorf("facilitator: room needs a name")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.rooms[name]; !ok {
		f.rooms[name] = &room{members: make(map[string]bool)}
	}
	return nil
}

// Join adds a member to a room.
func (f *Facilitator) Join(roomName, member string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.rooms[roomName]
	if !ok {
		return fmt.Errorf("%w: room %q", ErrNotFound, roomName)
	}
	r.members[member] = true
	return nil
}

// Say posts a message to a room; only members may speak.
func (f *Facilitator) Say(roomName, member, text string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.rooms[roomName]
	if !ok {
		return 0, fmt.Errorf("%w: room %q", ErrNotFound, roomName)
	}
	if !r.members[member] {
		return 0, fmt.Errorf("facilitator: %q is not in room %q", member, roomName)
	}
	msg := ChatMessage{Seq: f.nextSeqLocked(), Author: member, Text: text}
	r.messages = append(r.messages, msg)
	return msg.Seq, nil
}

// Messages returns room messages with Seq greater than after — clients
// poll incrementally.
func (f *Facilitator) Messages(roomName string, after int) ([]ChatMessage, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r, ok := f.rooms[roomName]
	if !ok {
		return nil, fmt.Errorf("%w: room %q", ErrNotFound, roomName)
	}
	var out []ChatMessage
	for _, m := range r.messages {
		if m.Seq > after {
			out = append(out, m)
		}
	}
	return out, nil
}

// Rooms lists open rooms, sorted.
func (f *Facilitator) Rooms() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.rooms))
	for r := range f.rooms {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// ---- bulletin board ----

// Publish posts an article to a news group, creating the group on
// first use.
func (f *Facilitator) Publish(board, author, subject, body string) (int, error) {
	if board == "" || subject == "" {
		return 0, fmt.Errorf("facilitator: post needs a board and a subject")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p := Post{Seq: f.nextSeqLocked(), Author: author, Subject: subject, Body: body}
	f.boards[board] = append(f.boards[board], p)
	return p.Seq, nil
}

// Read returns a board's posts with Seq greater than after.
func (f *Facilitator) Read(board string, after int) ([]Post, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	posts, ok := f.boards[board]
	if !ok {
		return nil, fmt.Errorf("%w: board %q", ErrNotFound, board)
	}
	var out []Post
	for _, p := range posts {
		if p.Seq > after {
			out = append(out, p)
		}
	}
	return out, nil
}

// Boards lists existing news groups, sorted.
func (f *Facilitator) Boards() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.boards))
	for b := range f.boards {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// ---- e-mail ----

// Send delivers a mail to the recipient's mailbox.
func (f *Facilitator) Send(from, to, subject, body string) (int, error) {
	if to == "" {
		return 0, fmt.Errorf("facilitator: mail needs a recipient")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := Mail{Seq: f.nextSeqLocked(), From: from, To: to, Subject: subject, Body: body}
	f.mail[to] = append(f.mail[to], m)
	return m.Seq, nil
}

// Inbox returns the recipient's mail; an empty mailbox is not an error.
func (f *Facilitator) Inbox(recipient string) []Mail {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]Mail(nil), f.mail[recipient]...)
}
