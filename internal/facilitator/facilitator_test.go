package facilitator

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mits/internal/sim"
)

func TestRoomLifecycle(t *testing.T) {
	f := New()
	if err := f.OpenRoom("atm-questions"); err != nil {
		t.Fatal(err)
	}
	if err := f.OpenRoom(""); err == nil {
		t.Error("unnamed room accepted")
	}
	f.OpenRoom("atm-questions") // idempotent
	if got := f.Rooms(); len(got) != 1 {
		t.Errorf("rooms %v", got)
	}
	if err := f.Join("atm-questions", "880001"); err != nil {
		t.Fatal(err)
	}
	f.Join("atm-questions", "consultant-1")
	if members := f.rooms["atm-questions"].members; len(members) != 2 || !members["880001"] {
		t.Errorf("members %v", members)
	}
	if err := f.Join("nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Error("joined missing room")
	}
}

func TestChatFlow(t *testing.T) {
	f := New()
	f.OpenRoom("r")
	f.Join("r", "student")
	f.Join("r", "teacher")
	if _, err := f.Say("r", "outsider", "hi"); err == nil {
		t.Error("non-member spoke")
	}
	seq1, err := f.Say("r", "student", "what is CDVT?")
	if err != nil {
		t.Fatal(err)
	}
	seq2, _ := f.Say("r", "teacher", "cell delay variation tolerance")
	if seq2 <= seq1 {
		t.Error("sequence numbers not monotone")
	}
	msgs, err := f.Messages("r", 0)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("messages %v err=%v", msgs, err)
	}
	// Incremental poll.
	newer, _ := f.Messages("r", seq1)
	if len(newer) != 1 || newer[0].Author != "teacher" {
		t.Errorf("incremental poll %v", newer)
	}
	if _, err := f.Messages("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Error("read ghost room")
	}
}

func TestBulletinBoard(t *testing.T) {
	f := New()
	seq, err := f.Publish("announcements", "admin", "New course: ATM Technology", "enroll now")
	if err != nil {
		t.Fatal(err)
	}
	f.Publish("announcements", "admin", "Exam schedule", "next month")
	f.Publish("exercise-review", "ta", "Common mistakes in ex.1", "watch the HEC")
	if _, err := f.Publish("", "x", "", ""); err == nil {
		t.Error("post without board/subject accepted")
	}
	boards := f.Boards()
	if len(boards) != 2 || boards[0] != "announcements" {
		t.Errorf("boards %v", boards)
	}
	posts, err := f.Read("announcements", 0)
	if err != nil || len(posts) != 2 {
		t.Fatalf("posts %v err=%v", posts, err)
	}
	newer, _ := f.Read("announcements", seq)
	if len(newer) != 1 || newer[0].Subject != "Exam schedule" {
		t.Errorf("incremental read %v", newer)
	}
	if _, err := f.Read("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Error("read ghost board")
	}
}

func TestMail(t *testing.T) {
	f := New()
	if _, err := f.Send("a", "", "s", "b"); err == nil {
		t.Error("mail without recipient accepted")
	}
	f.Send("student", "prof", "question about cells", "why 48 bytes?")
	f.Send("prof", "student", "re: question", "politics: 32+64 averaged")
	inbox := f.Inbox("prof")
	if len(inbox) != 1 || inbox[0].From != "student" {
		t.Errorf("prof inbox %v", inbox)
	}
	if got := f.Inbox("nobody"); len(got) != 0 {
		t.Errorf("empty inbox %v", got)
	}
}

func TestConcurrentFacilitator(t *testing.T) {
	f := New()
	f.OpenRoom("r")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			member := string(rune('a' + n))
			f.Join("r", member)
			for j := 0; j < 50; j++ {
				f.Say("r", member, "msg")
				f.Messages("r", 0)
				f.Publish("b", member, "s", "x")
				f.Send(member, "prof", "s", "b")
			}
		}(i)
	}
	wg.Wait()
	msgs, _ := f.Messages("r", 0)
	if len(msgs) != 400 {
		t.Errorf("messages=%d, want 400", len(msgs))
	}
	if len(f.Inbox("prof")) != 400 {
		t.Error("mail lost under concurrency")
	}
}

func TestHelpDeskServesWithinCapacity(t *testing.T) {
	clock := sim.NewClock()
	desk, err := NewHelpDesk(clock, 3, func() time.Duration { return time.Minute })
	if err != nil {
		t.Fatal(err)
	}
	// Three simultaneous questions: all served immediately.
	for i := 0; i < 3; i++ {
		desk.Ask(&Ticket{Student: "s"})
	}
	if desk.busy != 3 || len(desk.queue) != 0 {
		t.Fatalf("busy=%d queue=%d", desk.busy, len(desk.queue))
	}
	clock.Run()
	if desk.Answered != 3 {
		t.Errorf("answered=%d", desk.Answered)
	}
	if desk.Wait.Max() != 0 {
		t.Errorf("wait with free consultants = %v", time.Duration(desk.Wait.Max()))
	}
}

func TestHelpDeskQueuesBeyondCapacity(t *testing.T) {
	// The SIDL scenario: 3 lines, 10 students ask at once, 1-minute
	// answers. The last student waits 3 minutes.
	clock := sim.NewClock()
	desk, _ := NewHelpDesk(clock, 3, func() time.Duration { return time.Minute })
	var waits []time.Duration
	for i := 0; i < 10; i++ {
		desk.Ask(&Ticket{Student: "s", Done: func(w, _ time.Duration) { waits = append(waits, w) }})
	}
	if len(desk.queue) != 7 {
		t.Fatalf("queue=%d, want 7", len(desk.queue))
	}
	clock.Run()
	if desk.Answered != 10 {
		t.Fatalf("answered=%d", desk.Answered)
	}
	if desk.MaxQueue != 7 {
		t.Errorf("MaxQueue=%d", desk.MaxQueue)
	}
	// Waits: 0,0,0, 1m×3, 2m×3, 3m.
	last := waits[len(waits)-1]
	if last != 3*time.Minute {
		t.Errorf("last wait %v, want 3m", last)
	}
	if desk.Wait.Max() != float64(3*time.Minute) {
		t.Errorf("max wait %v", time.Duration(desk.Wait.Max()))
	}

	// Same load with 10 consultants (MITS facilitator): nobody waits.
	clock2 := sim.NewClock()
	desk2, _ := NewHelpDesk(clock2, 10, func() time.Duration { return time.Minute })
	for i := 0; i < 10; i++ {
		desk2.Ask(&Ticket{Student: "s"})
	}
	clock2.Run()
	if desk2.Wait.Max() != 0 {
		t.Errorf("10-consultant desk max wait %v", time.Duration(desk2.Wait.Max()))
	}
}

func TestHelpDeskFIFO(t *testing.T) {
	clock := sim.NewClock()
	desk, _ := NewHelpDesk(clock, 1, func() time.Duration { return time.Second })
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		desk.Ask(&Ticket{Student: name, Done: func(time.Duration, time.Duration) { order = append(order, name) }})
	}
	clock.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("service order %v", order)
	}
}

func TestHelpDeskValidation(t *testing.T) {
	clock := sim.NewClock()
	if _, err := NewHelpDesk(clock, 0, func() time.Duration { return 0 }); err == nil {
		t.Error("0 consultants accepted")
	}
	if _, err := NewHelpDesk(clock, 1, nil); err == nil {
		t.Error("nil service accepted")
	}
}
