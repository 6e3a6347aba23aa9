// Package school implements the administration features of the MIRL
// TeleSchool (§5.2.1, §5.3.3): student registration and profiles (the
// CStudent class), course records (the CCourse class), per-program
// course catalogues, enrollment statistics, bookmarks and the
// stop-position mechanism that resumes a course presentation "at the
// right place when a student enters again".
package school

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrNotFound is returned for unknown students, courses or programs.
var ErrNotFound = errors.New("school: not found")

// Course mirrors the thesis's CCourse class: "course name, planned
// session to finish a course, course code, as well as the program which
// provides the courses are member variables".
type Course struct {
	Code            string
	Name            string
	Program         string
	PlannedSessions int
	// Document names the courseware document in the database.
	Document string
	// IntroRef references the multimedia course introduction clip shown
	// at registration (Fig 5.4d).
	IntroRef string
}

// Profile is the personal data a student provides at registration
// (Fig 5.4a-c).
type Profile struct {
	Name    string
	Address string
	Email   string
	// Background informs courseware analysis (§4.1.1).
	Background string
}

// Registration is one student-course enrollment.
type Registration struct {
	CourseCode string
	// SessionsDone tracks progress toward the course's planned sessions.
	SessionsDone int
	Completed    bool
}

// Bookmark saves "the location of the interesting topics or media
// objects found during browsing" (§5.2.1).
type Bookmark struct {
	Label  string
	Course string
	Scene  string
	At     time.Duration
}

// Position is a stop position inside a course presentation.
type Position struct {
	Scene string
	At    time.Duration
}

// Student mirrors the CStudent class: identity, profile and the
// courses registered.
type Student struct {
	Number    string
	Profile   Profile
	Courses   []Registration
	Bookmarks []Bookmark
	// Resume maps course codes to the last stop position.
	Resume map[string]Position
}

func (s *Student) registration(code string) *Registration {
	for i := range s.Courses {
		if s.Courses[i].CourseCode == code {
			return &s.Courses[i]
		}
	}
	return nil
}

// School is the virtual school's administration database. Safe for
// concurrent use (it sits behind the network service).
type School struct {
	mu         sync.RWMutex
	name       string
	students   map[string]*Student
	courses    map[string]*Course
	nextNumber int
	fees       map[string]Fee
	payments   map[string]int // collected cents per student
}

// New creates an empty school.
func New(name string) *School {
	return &School{
		name:       name,
		students:   make(map[string]*Student),
		courses:    make(map[string]*Course),
		nextNumber: 880001, // student numbers look like the thesis era's
	}
}

// AddCourse lists a course in the catalogue.
func (s *School) AddCourse(c Course) error {
	if c.Code == "" || c.Name == "" || c.Program == "" {
		return fmt.Errorf("school: course needs code, name and program (got %+v)", c)
	}
	if c.PlannedSessions <= 0 {
		return fmt.Errorf("school: course %s needs planned sessions ≥ 1", c.Code)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.courses[c.Code]; dup {
		return fmt.Errorf("school: course %s already listed", c.Code)
	}
	cc := c
	s.courses[c.Code] = &cc
	return nil
}

// Course looks a course up by code.
func (s *School) Course(code string) (Course, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.courses[code]
	if !ok {
		return Course{}, fmt.Errorf("%w: course %s", ErrNotFound, code)
	}
	return *c, nil
}

// courseVisit answers school.Course: a course record and the student's
// stored stop position in it, read under one hold of the read lock, so
// no concurrent RecordSession lands between the two reads. found is
// false when there is no position, or no such student; only an unknown
// course is an error.
func (s *School) courseVisit(number, code string) (c Course, pos Position, found bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp, ok := s.courses[code]
	if !ok {
		return Course{}, Position{}, false, fmt.Errorf("%w: course %s", ErrNotFound, code)
	}
	if st, ok := s.students[number]; ok {
		pos, found = st.Resume[code]
	}
	return *cp, pos, found, nil
}

// Programs lists the programs offered, sorted.
func (s *School) Programs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[string]bool)
	for _, c := range s.courses {
		set[c.Program] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// CoursesIn lists the courses of a program (the course registration
// dialog of Fig 5.4d: "choose a program, and get a list of courses
// provided in that program").
func (s *School) CoursesIn(program string) []Course {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Course
	for _, c := range s.courses {
		if c.Program == program {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Register enrolls a new student, assigning a student number ("the
// student is given a new student number", §5.4).
func (s *School) Register(p Profile) (string, error) {
	if p.Name == "" {
		return "", fmt.Errorf("school: registration requires a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	num := fmt.Sprintf("%d", s.nextNumber)
	s.nextNumber++
	s.students[num] = &Student{
		Number:  num,
		Profile: p,
		Resume:  make(map[string]Position),
	}
	return num, nil
}

// Login checks a student number: entering the school requires only the
// number ("each time a student accesses a course, it is required that
// the student number ... should be provided", §5.2.1), so it copies
// nothing of the record.
func (s *School) Login(number string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.students[number]; !ok {
		return fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	return nil
}

// Student fetches a copy of a student record.
func (s *School) Student(number string) (Student, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.students[number]
	if !ok {
		return Student{}, fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	return copyStudent(st), nil
}

func copyStudent(st *Student) Student {
	cp := *st
	cp.Courses = append([]Registration(nil), st.Courses...)
	cp.Bookmarks = append([]Bookmark(nil), st.Bookmarks...)
	cp.Resume = make(map[string]Position, len(st.Resume))
	for k, v := range st.Resume {
		cp.Resume[k] = v
	}
	return cp
}

// UpdateProfile changes a student's personal data (Fig 5.6); the change
// is "modified at the database side immediately" (§5.3.3).
func (s *School) UpdateProfile(number string, p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("school: profile requires a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.students[number]
	if !ok {
		return fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	st.Profile = p
	return nil
}

// Enroll registers a student for a course.
func (s *School) Enroll(number, courseCode string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.students[number]
	if !ok {
		return fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	if _, ok := s.courses[courseCode]; !ok {
		return fmt.Errorf("%w: course %s", ErrNotFound, courseCode)
	}
	if st.registration(courseCode) != nil {
		return fmt.Errorf("school: student %s already enrolled in %s", number, courseCode)
	}
	st.Courses = append(st.Courses, Registration{CourseCode: courseCode})
	return nil
}

// RecordSession is a student's exit from a course presentation (§5.4):
// it stores the stop position, then advances the student's progress in
// the course by one session, marking completion when planned sessions
// are reached. A student who is not enrolled keeps the stored position
// and gets the "not enrolled" error.
func (s *School) RecordSession(number, courseCode string, pos Position) (Registration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.students[number]
	if !ok {
		return Registration{}, fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	st.Resume[courseCode] = pos
	reg := st.registration(courseCode)
	if reg == nil {
		return Registration{}, fmt.Errorf("school: student %s not enrolled in %s", number, courseCode)
	}
	course := s.courses[courseCode]
	reg.SessionsDone++
	if course != nil && reg.SessionsDone >= course.PlannedSessions {
		reg.Completed = true
	}
	return *reg, nil
}

// SetResume stores the stop position of a course presentation.
func (s *School) SetResume(number, courseCode string, pos Position) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.students[number]
	if !ok {
		return fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	st.Resume[courseCode] = pos
	return nil
}

// GetResume retrieves the stored stop position.
func (s *School) GetResume(number, courseCode string) (Position, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.students[number]
	if !ok {
		return Position{}, false, fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	pos, found := st.Resume[courseCode]
	return pos, found, nil
}

// AddBookmark saves a bookmark.
func (s *School) AddBookmark(number string, b Bookmark) error {
	if b.Label == "" {
		return fmt.Errorf("school: bookmark requires a label")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.students[number]
	if !ok {
		return fmt.Errorf("%w: student %s", ErrNotFound, number)
	}
	st.Bookmarks = append(st.Bookmarks, b)
	return nil
}

// Statistics is the school/course/student summary available "upon the
// students demand" (§5.2.1).
type Statistics struct {
	Students    int
	Courses     int
	Programs    int
	Enrollments map[string]int // course code → enrolled students
	Completions map[string]int // course code → completions
}

// Stats summarizes the school.
func (s *School) Stats() Statistics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stats := Statistics{
		Students:    len(s.students),
		Courses:     len(s.courses),
		Enrollments: make(map[string]int),
		Completions: make(map[string]int),
	}
	progs := make(map[string]bool)
	for _, c := range s.courses {
		progs[c.Program] = true
	}
	stats.Programs = len(progs)
	for _, st := range s.students {
		for _, r := range st.Courses {
			stats.Enrollments[r.CourseCode]++
			if r.Completed {
				stats.Completions[r.CourseCode]++
			}
		}
	}
	return stats
}
