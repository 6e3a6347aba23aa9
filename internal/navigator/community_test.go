package navigator

import (
	"strings"
	"testing"

	"mits/internal/exercise"
	"mits/internal/facilitator"
	"mits/internal/school"
	"mits/internal/transport"
)

// communitySchool wires a navigator against a mux carrying school,
// facilitator and exercise services (as mits.System does).
func communitySchool(t *testing.T) (*Navigator, *facilitator.Facilitator, *exercise.Book) {
	t.Helper()
	sch := school.New("s")
	sch.AddCourse(school.Course{Code: "C1", Name: "ATM", Program: "Eng", PlannedSessions: 1, Document: "d"})
	fac := facilitator.New()
	book := exercise.NewBook()
	mux := transport.NewMux()
	school.RegisterService(mux, sch)
	facilitator.RegisterService(mux, fac)
	exercise.RegisterService(mux, book)
	nav := New(Options{DB: transport.Loopback{H: mux}, School: transport.Loopback{H: mux}})
	return nav, fac, book
}

func TestDiscussionFlow(t *testing.T) {
	nav, _, _ := communitySchool(t)
	if err := nav.JoinDiscussion("atm-cells"); err == nil {
		t.Fatal("joined without login")
	}
	num, err := nav.Register(school.Profile{Name: "Ada"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nav.JoinDiscussion("atm-cells"); err != nil {
		t.Fatal(err)
	}
	if err := nav.Say("atm-cells", "why 48 bytes?"); err != nil {
		t.Fatal(err)
	}
	msgs, err := nav.Discussion("atm-cells", 0)
	if err != nil || len(msgs) != 1 || msgs[0].Author != num {
		t.Fatalf("messages %v err=%v", msgs, err)
	}
	rooms, err := nav.Rooms()
	if err != nil || len(rooms) != 1 {
		t.Fatalf("rooms %v err=%v", rooms, err)
	}
}

func TestBulletinAndMail(t *testing.T) {
	nav, fac, _ := communitySchool(t)
	nav.Register(school.Profile{Name: "Ada"})
	fac.Publish("announcements", "admin", "Welcome", "term starts")
	boards, err := nav.Boards()
	if err != nil || len(boards) != 1 {
		t.Fatalf("boards %v err=%v", boards, err)
	}
	posts, err := nav.ReadBoard("announcements", 0)
	if err != nil || len(posts) != 1 || posts[0].Subject != "Welcome" {
		t.Fatalf("posts %v err=%v", posts, err)
	}
	if err := nav.SendMail("prof", "question", "why cells?"); err != nil {
		t.Fatal(err)
	}
	if got := fac.Inbox("prof"); len(got) != 1 {
		t.Fatalf("prof inbox %v", got)
	}
	// Reply arrives in the student's mailbox.
	fac.Send("prof", nav.student, "re: question", "history")
	inbox, err := nav.Mailbox()
	if err != nil || len(inbox) != 1 || inbox[0].From != "prof" {
		t.Fatalf("inbox %v err=%v", inbox, err)
	}
}

func TestExerciseFlowOverService(t *testing.T) {
	nav, _, book := communitySchool(t)
	nav.Register(school.Profile{Name: "Ada"})
	book.AddSet(&exercise.Set{
		ID: "ex1", Course: "C1", Title: "cells",
		Problems: []exercise.Problem{
			{ID: "p1", Kind: exercise.MultipleChoice, Prompt: "cell size?",
				Options: []string{"48", "53"}, Answer: "1", Points: 2,
				Feedback: "48 is the payload"},
			{ID: "p2", Kind: exercise.FreeText, Prompt: "policer?", Answer: "GCRA", Points: 3},
		},
	})

	sets, err := nav.Exercises("C1")
	if err != nil || len(sets) != 1 {
		t.Fatalf("sets %v err=%v", sets, err)
	}
	pres, err := nav.TakeExercise("ex1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pres.Problems {
		if p.Answer != "" {
			t.Fatal("answers leaked to the student")
		}
	}
	g, err := nav.SubmitExercise("ex1", map[string]string{"p1": "1", "p2": "gcra"})
	if err != nil || g.Score != 5 {
		t.Fatalf("grade %+v err=%v", g, err)
	}
	if s := FormatGrade(g); !strings.Contains(s, "5/5 (100%)") {
		t.Errorf("FormatGrade %q", s)
	}
	ranks, err := nav.Contest("C1")
	if err != nil || len(ranks) != 1 || ranks[0].Score != 5 {
		t.Fatalf("contest %v err=%v", ranks, err)
	}
	if _, err := nav.TakeExercise("ghost"); err == nil {
		t.Error("ghost set fetched")
	}
}
