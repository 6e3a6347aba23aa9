package navigator

import (
	"fmt"

	"mits/internal/exercise"
	"mits/internal/facilitator"
)

// This file adds the communication and exercise features of §5.2.1 to
// the navigator: meeting and discussing, the bulletin board, e-mail,
// and the exercise module — all served by the same school server the
// administration talks to.

func (n *Navigator) facClient() facilitator.Client {
	return facilitator.Client{C: n.school.C}
}

func (n *Navigator) exClient() exercise.Client {
	return exercise.Client{C: n.school.C}
}

// ---- meeting and discussing ----

// JoinDiscussion enters (creating if needed) a discussion room.
func (n *Navigator) JoinDiscussion(room string) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	fac := n.facClient()
	if err := fac.OpenRoom(room); err != nil {
		return err
	}
	return fac.Join(room, n.student)
}

// Say posts to a discussion room.
func (n *Navigator) Say(room, text string) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	_, err := n.facClient().Say(room, n.student, text)
	return err
}

// Discussion polls a room's messages after the given sequence number.
func (n *Navigator) Discussion(room string, after int) ([]facilitator.ChatMessage, error) {
	return n.facClient().Messages(room, after)
}

// Rooms lists open discussion rooms.
func (n *Navigator) Rooms() ([]string, error) { return n.facClient().Rooms() }

// ---- bulletin board ----

// Boards lists the news groups.
func (n *Navigator) Boards() ([]string, error) { return n.facClient().Boards() }

// ReadBoard fetches a board's posts after the given sequence number.
func (n *Navigator) ReadBoard(board string, after int) ([]facilitator.Post, error) {
	return n.facClient().Read(board, after)
}

// ---- e-mail ----

// SendMail mails another school member (a professor, a classmate).
func (n *Navigator) SendMail(to, subject, body string) error {
	if n.student == "" {
		return errNotLoggedIn
	}
	_, err := n.facClient().SendMail(n.student, to, subject, body)
	return err
}

// Mailbox fetches the student's inbox.
func (n *Navigator) Mailbox() ([]facilitator.Mail, error) {
	if n.student == "" {
		return nil, errNotLoggedIn
	}
	return n.facClient().Inbox(n.student)
}

// ---- exercises (§5.2.1) ----

// Exercises lists the problem sets of a course.
func (n *Navigator) Exercises(courseCode string) ([]string, error) {
	return n.exClient().SetsFor(courseCode)
}

// TakeExercise fetches a problem set with the answers stripped.
func (n *Navigator) TakeExercise(setID string) (*exercise.Set, error) {
	return n.exClient().Presentable(setID)
}

// SubmitExercise grades the student's answers.
func (n *Navigator) SubmitExercise(setID string, answers map[string]string) (*exercise.Grade, error) {
	if n.student == "" {
		return nil, errNotLoggedIn
	}
	return n.exClient().Submit(setID, n.student, answers)
}

// Contest fetches a course's contest ranking.
func (n *Navigator) Contest(courseCode string) ([]exercise.Standing, error) {
	return n.exClient().Contest(courseCode)
}

// FormatGrade renders a grade for display.
func FormatGrade(g *exercise.Grade) string {
	return fmt.Sprintf("%d/%d (%.0f%%) on attempt %d", g.Score, g.Max, g.Percent(), g.Attempt)
}
