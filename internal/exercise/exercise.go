// Package exercise implements the exercise facility of §5.2.1:
// "practicing is the best way to learn ... exercises can be provided as
// a separate module. Problems designed for the exercises can be in
// various styles besides the traditional text-based one. Contest can
// also be organized to stimulate the interests of the students." It
// also carries the feedback side the thesis defers to future work
// (§6.2: "exercise and feedback facilities ... need further study").
//
// A problem set groups problems of several styles (multiple choice,
// numeric, free text, and media-prompted problems whose prompt is a
// content-database reference); a grader scores submissions; the grade
// book accumulates results, per-student and per-set statistics, and
// contest rankings.
package exercise

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a problem style.
type Kind int

// Problem styles.
const (
	MultipleChoice Kind = iota
	Numeric
	FreeText
)

var kindNames = [...]string{"multiple-choice", "numeric", "free-text"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Problem is one exercise item. Prompts may be multimedia: MediaRef
// points into the content database ("problems ... in various styles
// besides the traditional text-based one").
type Problem struct {
	ID       string
	Kind     Kind
	Prompt   string
	MediaRef string   // optional multimedia prompt
	Options  []string // multiple choice options
	// Answer is the option index (multiple choice, as decimal string),
	// the expected number (numeric), or the expected text (free text,
	// case-insensitive).
	Answer string
	// Tolerance applies to numeric answers.
	Tolerance float64
	Points    int
	// Feedback shown for a wrong answer (the "analysis of the common
	// mistakes" material).
	Feedback string
}

// Validate checks one problem.
func (p *Problem) Validate() error {
	if p.ID == "" {
		return errors.New("exercise: problem without id")
	}
	if p.Prompt == "" && p.MediaRef == "" {
		return fmt.Errorf("exercise: problem %s has no prompt", p.ID)
	}
	if p.Points <= 0 {
		return fmt.Errorf("exercise: problem %s has non-positive points", p.ID)
	}
	switch p.Kind {
	case MultipleChoice:
		if len(p.Options) < 2 {
			return fmt.Errorf("exercise: problem %s needs ≥2 options", p.ID)
		}
		idx, err := strconv.Atoi(p.Answer)
		if err != nil || idx < 0 || idx >= len(p.Options) {
			return fmt.Errorf("exercise: problem %s has bad answer index %q", p.ID, p.Answer)
		}
	case Numeric:
		if _, err := strconv.ParseFloat(p.Answer, 64); err != nil {
			return fmt.Errorf("exercise: problem %s has non-numeric answer %q", p.ID, p.Answer)
		}
		if p.Tolerance < 0 {
			return fmt.Errorf("exercise: problem %s has negative tolerance", p.ID)
		}
	case FreeText:
		if p.Answer == "" {
			return fmt.Errorf("exercise: problem %s has empty expected text", p.ID)
		}
	default:
		return fmt.Errorf("exercise: problem %s has unknown kind %d", p.ID, int(p.Kind))
	}
	return nil
}

// Correct reports whether a student answer matches.
func (p *Problem) Correct(answer string) bool {
	switch p.Kind {
	case MultipleChoice:
		return strings.TrimSpace(answer) == p.Answer
	case Numeric:
		got, err := strconv.ParseFloat(strings.TrimSpace(answer), 64)
		if err != nil {
			return false
		}
		want, _ := strconv.ParseFloat(p.Answer, 64)
		return math.Abs(got-want) <= p.Tolerance
	case FreeText:
		return strings.EqualFold(strings.TrimSpace(answer), strings.TrimSpace(p.Answer))
	}
	return false
}

// Set is one problem set attached to a course.
type Set struct {
	ID       string
	Course   string
	Title    string
	Problems []Problem
}

// Validate checks the set.
func (s *Set) Validate() error {
	if s.ID == "" || s.Course == "" {
		return errors.New("exercise: set needs id and course")
	}
	if len(s.Problems) == 0 {
		return fmt.Errorf("exercise: set %s has no problems", s.ID)
	}
	seen := make(map[string]bool, len(s.Problems))
	for i := range s.Problems {
		p := &s.Problems[i]
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.ID] {
			return fmt.Errorf("exercise: set %s has duplicate problem %s", s.ID, p.ID)
		}
		seen[p.ID] = true
	}
	return nil
}

// MaxScore is the sum of the set's points.
func (s *Set) MaxScore() int {
	total := 0
	for _, p := range s.Problems {
		total += p.Points
	}
	return total
}

// Result is one problem's outcome in a grade.
type Result struct {
	Correct  bool
	Earned   int
	Feedback string // populated for wrong answers
}

// Grade is a scored submission.
type Grade struct {
	Student string
	SetID   string
	Score   int
	Max     int
	Results map[string]Result
	Attempt int
}

// Percent reports the grade as a percentage.
func (g *Grade) Percent() float64 {
	if g.Max == 0 {
		return 0
	}
	return 100 * float64(g.Score) / float64(g.Max)
}

// GradeSubmission scores answers (problem id → answer) against a set.
// Unanswered problems score zero.
func GradeSubmission(s *Set, student string, answers map[string]string) (*Grade, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &Grade{Student: student, SetID: s.ID, Max: s.MaxScore(), Results: make(map[string]Result, len(s.Problems))}
	for _, p := range s.Problems {
		ans, answered := answers[p.ID]
		res := Result{}
		if answered && p.Correct(ans) {
			res.Correct = true
			res.Earned = p.Points
			g.Score += p.Points
		} else {
			res.Feedback = p.Feedback
		}
		g.Results[p.ID] = res
	}
	return g, nil
}

// Book is the grade book: sets, grades, statistics and contest
// rankings. Safe for concurrent use.
type Book struct {
	mu     sync.RWMutex
	sets   map[string]*Set
	grades map[string]map[string]*Grade // set id → student → best grade
	tries  map[string]map[string]int    // set id → student → attempts
}

// NewBook creates an empty grade book.
func NewBook() *Book {
	return &Book{
		sets:   make(map[string]*Set),
		grades: make(map[string]map[string]*Grade),
		tries:  make(map[string]map[string]int),
	}
}

// AddSet publishes a problem set.
func (b *Book) AddSet(s *Set) error {
	if err := s.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.sets[s.ID]; dup {
		return fmt.Errorf("exercise: set %s already published", s.ID)
	}
	cp := *s
	cp.Problems = append([]Problem(nil), s.Problems...)
	b.sets[s.ID] = &cp
	b.grades[s.ID] = make(map[string]*Grade)
	b.tries[s.ID] = make(map[string]int)
	return nil
}

// Set fetches a published set (answers included — the navigator strips
// them before presentation; see Presentable).
func (b *Book) Set(id string) (*Set, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.sets[id]
	if !ok {
		return nil, fmt.Errorf("exercise: unknown set %s", id)
	}
	return s, nil
}

// SetsFor lists set ids of a course, sorted.
func (b *Book) SetsFor(course string) []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []string
	for id, s := range b.sets {
		if s.Course == course {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Presentable returns a copy of the set with answers and feedback
// removed, safe to ship to the student.
func (b *Book) Presentable(id string) (*Set, error) {
	s, err := b.Set(id)
	if err != nil {
		return nil, err
	}
	cp := *s
	cp.Problems = make([]Problem, len(s.Problems))
	for i, p := range s.Problems {
		p.Answer = ""
		p.Tolerance = 0
		p.Feedback = ""
		cp.Problems[i] = p
	}
	return &cp, nil
}

// Submit grades a student's answers and records the best result.
func (b *Book) Submit(setID, student string, answers map[string]string) (*Grade, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sets[setID]
	if !ok {
		return nil, fmt.Errorf("exercise: unknown set %s", setID)
	}
	g, err := GradeSubmission(s, student, answers)
	if err != nil {
		return nil, err
	}
	b.tries[setID][student]++
	g.Attempt = b.tries[setID][student]
	if prev, ok := b.grades[setID][student]; !ok || g.Score > prev.Score {
		b.grades[setID][student] = g
	}
	return g, nil
}

// Standing is one contest row.
type Standing struct {
	Student string
	Score   int
	Max     int
}

// Contest ranks students across all sets of a course by total best
// score (ties broken by name for determinism).
func (b *Book) Contest(course string) []Standing {
	b.mu.RLock()
	defer b.mu.RUnlock()
	totals := make(map[string]*Standing)
	for id, s := range b.sets {
		if s.Course != course {
			continue
		}
		max := s.MaxScore()
		for student, g := range b.grades[id] {
			st, ok := totals[student]
			if !ok {
				st = &Standing{Student: student}
				totals[student] = st
			}
			st.Score += g.Score
			st.Max += max
		}
	}
	out := make([]Standing, 0, len(totals))
	for _, st := range totals {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Student < out[j].Student
	})
	return out
}
