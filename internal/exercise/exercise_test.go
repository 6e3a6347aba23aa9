package exercise

import (
	"strings"
	"sync"
	"testing"
)

func sampleSet() *Set {
	return &Set{
		ID: "ex1", Course: "ELG5121", Title: "Cells and contracts",
		Problems: []Problem{
			{ID: "p1", Kind: MultipleChoice, Prompt: "ATM cell size?",
				Options: []string{"48 bytes", "53 bytes", "64 bytes"}, Answer: "1",
				Points: 2, Feedback: "48 is only the payload."},
			{ID: "p2", Kind: Numeric, Prompt: "Payload bytes per cell?",
				Answer: "48", Tolerance: 0, Points: 1},
			{ID: "p3", Kind: Numeric, Prompt: "OC-3 rate in Mb/s (±1)?",
				Answer: "155.52", Tolerance: 1, Points: 2},
			{ID: "p4", Kind: FreeText, Prompt: "Name the policing algorithm.",
				Answer: "GCRA", Points: 3, Feedback: "See §GCRA."},
			{ID: "p5", Kind: MultipleChoice, MediaRef: "store/atm/cell-format.jpg",
				Prompt: "", Options: []string{"header", "payload"}, Answer: "0", Points: 1},
		},
	}
}

func TestSetValidation(t *testing.T) {
	if err := sampleSet().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		break_ func(*Set)
	}{
		{"no id", func(s *Set) { s.ID = "" }},
		{"no problems", func(s *Set) { s.Problems = nil }},
		{"dup problem", func(s *Set) { s.Problems = append(s.Problems, s.Problems[0]) }},
		{"no prompt", func(s *Set) { s.Problems[0].Prompt, s.Problems[0].MediaRef = "", "" }},
		{"zero points", func(s *Set) { s.Problems[0].Points = 0 }},
		{"one option", func(s *Set) { s.Problems[0].Options = s.Problems[0].Options[:1] }},
		{"bad answer index", func(s *Set) { s.Problems[0].Answer = "9" }},
		{"non-numeric answer", func(s *Set) { s.Problems[1].Answer = "many" }},
		{"negative tolerance", func(s *Set) { s.Problems[2].Tolerance = -1 }},
		{"empty text answer", func(s *Set) { s.Problems[3].Answer = "" }},
	}
	for _, c := range cases {
		s := sampleSet()
		c.break_(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestCorrectness(t *testing.T) {
	s := sampleSet()
	p1 := s.Problems[0]
	if !p1.Correct("1") || p1.Correct("0") || p1.Correct("x") {
		t.Error("multiple choice grading")
	}
	p3 := s.Problems[2]
	if !p3.Correct("155") || !p3.Correct("156.5") || p3.Correct("150") || p3.Correct("fast") {
		t.Error("numeric tolerance grading")
	}
	p4 := s.Problems[3]
	if !p4.Correct("gcra") || !p4.Correct("  GCRA ") || p4.Correct("leaky") {
		t.Error("free text grading")
	}
}

func TestGradeSubmission(t *testing.T) {
	s := sampleSet()
	g, err := GradeSubmission(s, "880001", map[string]string{
		"p1": "1", "p2": "48", "p3": "200", "p4": "token bucket",
		// p5 unanswered
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Max != 9 || g.Score != 3 {
		t.Errorf("score %d/%d, want 3/9", g.Score, g.Max)
	}
	if !g.Results["p1"].Correct || g.Results["p3"].Correct || g.Results["p5"].Correct {
		t.Errorf("results %+v", g.Results)
	}
	if g.Results["p4"].Feedback != "See §GCRA." {
		t.Errorf("feedback %q", g.Results["p4"].Feedback)
	}
	if pct := g.Percent(); pct < 33 || pct > 34 {
		t.Errorf("percent %.1f", pct)
	}
}

func TestBookFlow(t *testing.T) {
	b := NewBook()
	if err := b.AddSet(sampleSet()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSet(sampleSet()); err == nil {
		t.Error("duplicate set published")
	}
	if got := b.SetsFor("ELG5121"); len(got) != 1 || got[0] != "ex1" {
		t.Errorf("SetsFor %v", got)
	}
	if got := b.SetsFor("ZZZ"); len(got) != 0 {
		t.Errorf("phantom sets %v", got)
	}

	// The presentable copy leaks no answers.
	pres, err := b.Presentable("ex1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pres.Problems {
		if p.Answer != "" || p.Feedback != "" {
			t.Fatalf("presentable set leaks answers: %+v", p)
		}
	}
	// And the stored set still grades (Presentable must not mutate it).
	g, err := b.Submit("ex1", "880001", map[string]string{"p1": "1", "p2": "48", "p3": "155", "p4": "GCRA", "p5": "0"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Score != 9 || g.Attempt != 1 {
		t.Errorf("grade %+v", g)
	}

	// Best-of retention: a worse retry does not clobber the best grade.
	g2, _ := b.Submit("ex1", "880001", map[string]string{"p1": "0"})
	if g2.Attempt != 2 {
		t.Errorf("attempt %d", g2.Attempt)
	}
	if ranks := b.Contest("ELG5121"); len(ranks) != 1 || ranks[0].Score != 9 {
		t.Errorf("best-of standing %+v", ranks)
	}

	if _, err := b.Submit("zzz", "x", nil); err == nil {
		t.Error("submitted to ghost set")
	}
	if _, err := b.Set("zzz"); err == nil {
		t.Error("fetched ghost set")
	}
	if _, err := b.Presentable("zzz"); err == nil {
		t.Error("presented ghost set")
	}
}

func TestContestRanking(t *testing.T) {
	b := NewBook()
	b.AddSet(sampleSet())
	second := sampleSet()
	second.ID = "ex2"
	b.AddSet(second)
	b.Submit("ex1", "a", map[string]string{"p1": "1", "p2": "48", "p3": "155", "p4": "GCRA", "p5": "0"}) // 9
	b.Submit("ex2", "a", map[string]string{"p1": "1"})                                                   // 2 → total 11
	b.Submit("ex1", "b", map[string]string{"p1": "1", "p2": "48"})                                       // 3
	b.Submit("ex1", "c", map[string]string{"p2": "48", "p4": "gcra"})                                    // 4
	ranks := b.Contest("ELG5121")
	if len(ranks) != 3 {
		t.Fatalf("ranks %v", ranks)
	}
	if ranks[0].Student != "a" || ranks[0].Score != 11 {
		t.Errorf("winner %+v", ranks[0])
	}
	if ranks[1].Student != "c" || ranks[2].Student != "b" {
		t.Errorf("order %v", ranks)
	}
	if ranks[0].Max != 18 || ranks[1].Max != 9 {
		t.Errorf("maxima %v", ranks)
	}
	if got := b.Contest("ZZZ"); len(got) != 0 {
		t.Error("phantom contest")
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	b := NewBook()
	b.AddSet(sampleSet())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			student := string(rune('a' + n))
			for j := 0; j < 50; j++ {
				b.Submit("ex1", student, map[string]string{"p1": "1"})
				b.Contest("ELG5121")
			}
		}(i)
	}
	wg.Wait()
	if ranks := b.Contest("ELG5121"); len(ranks) != 8 {
		t.Errorf("%d students ranked, want 8", len(ranks))
	}
}

func TestKindString(t *testing.T) {
	if MultipleChoice.String() != "multiple-choice" || Numeric.String() != "numeric" ||
		FreeText.String() != "free-text" || !strings.Contains(Kind(9).String(), "Kind(") {
		t.Error("kind names")
	}
}
