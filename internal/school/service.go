package school

import (
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// Network method names of the administration service.
const (
	MethodRegister      = "school.Register"
	MethodLogin         = "school.Login"
	MethodUpdateProfile = "school.UpdateProfile"
	MethodPrograms      = "school.Programs"
	MethodCoursesIn     = "school.CoursesIn"
	MethodCourse        = "school.Course"
	MethodEnroll        = "school.Enroll"
	MethodRecordSession = "school.RecordSession"
	MethodAddBookmark   = "school.AddBookmark"
	MethodStats         = "school.Stats"
)

// Names of routes no longer mounted. They stay because bench/ names
// them.
const (
	MethodSetResume = "school.SetResume"
	MethodGetResume = "school.GetResume"
)

type studentCourseReq struct{ Number, Course string }
type profileReq struct {
	Number  string
	Profile Profile
}
type resumeSetReq struct {
	Number, Course string
	Pos            Position
}

// courseResp answers school.Course: the course record and the asking
// student's stored stop position in it, if any.
type courseResp struct {
	Course Course
	Pos    Position
	Found  bool
}

type bookmarkReq struct {
	Number   string
	Bookmark Bookmark
}

// RegisterService exposes a School on a transport mux.
func RegisterService(m *transport.Mux, s *School) {
	transport.Route(m, MethodRegister, s.Register)
	transport.Route(m, MethodLogin, func(number string) (struct{}, error) {
		return struct{}{}, s.Login(number)
	})
	transport.Route(m, MethodUpdateProfile, func(req profileReq) (struct{}, error) {
		return struct{}{}, s.UpdateProfile(req.Number, req.Profile)
	})
	transport.Route(m, MethodPrograms, func(struct{}) ([]string, error) { return s.Programs(), nil })
	transport.Route(m, MethodCoursesIn, func(program string) ([]Course, error) { return s.CoursesIn(program), nil })
	transport.Route(m, MethodCourse, func(req studentCourseReq) (courseResp, error) {
		c, pos, found, err := s.courseVisit(req.Number, req.Course)
		return courseResp{Course: c, Pos: pos, Found: found}, err
	})
	transport.Route(m, MethodEnroll, func(req studentCourseReq) (struct{}, error) {
		return struct{}{}, s.Enroll(req.Number, req.Course)
	})
	// school.Course and school.RecordSession carry the stop position
	// since they replaced GetResume and SetResume on a course visit's
	// path. A RecordSession request in its older shape, without the
	// position, runs out of bytes where the position begins and is
	// refused: it cannot file a zero position over the stored one.
	transport.Route(m, MethodRecordSession, func(req resumeSetReq) (Registration, error) {
		return s.RecordSession(req.Number, req.Course, req.Pos)
	})
	transport.Route(m, MethodAddBookmark, func(req bookmarkReq) (struct{}, error) {
		return struct{}{}, s.AddBookmark(req.Number, req.Bookmark)
	})
	transport.Route(m, MethodStats, func(struct{}) (Statistics, error) { return s.Stats(), nil })
}

// Client is the navigator-side view of the administration service.
type Client struct {
	C transport.Client

	// Trace, when non-zero, is the span context every call continues
	// (see transport.DBClient.Trace).
	Trace obs.SpanContext
}

// invoke is the typed call every stub below makes.
func (c Client) invoke(method string, req, resp any) error {
	return transport.Invoke(c.C, c.Trace, method, req, resp)
}

// Register enrolls a new student and returns the assigned number.
func (c Client) Register(p Profile) (num string, err error) {
	err = c.invoke(MethodRegister, p, &num)
	return num, err
}

// Login checks that a student number exists; the reply is empty
// whatever the student's record holds.
func (c Client) Login(number string) error {
	return c.invoke(MethodLogin, number, nil)
}

// UpdateProfile replaces a student's personal data.
func (c Client) UpdateProfile(number string, p Profile) error {
	return c.invoke(MethodUpdateProfile, profileReq{Number: number, Profile: p}, nil)
}

// Programs lists available programs.
func (c Client) Programs() (progs []string, err error) {
	err = c.invoke(MethodPrograms, nil, &progs)
	return progs, err
}

// CoursesIn lists a program's courses.
func (c Client) CoursesIn(program string) (courses []Course, err error) {
	err = c.invoke(MethodCoursesIn, program, &courses)
	return courses, err
}

// Course fetches one course record and the student's stored stop
// position in it: found is false when there is none, or no such
// student. Only an unknown course fails the call.
func (c Client) Course(number, code string) (course Course, pos Position, found bool, err error) {
	var resp courseResp
	err = c.invoke(MethodCourse, studentCourseReq{Number: number, Course: code}, &resp)
	return resp.Course, resp.Pos, resp.Found, err
}

// Enroll registers the student for a course.
func (c Client) Enroll(number, course string) error {
	return c.invoke(MethodEnroll, studentCourseReq{Number: number, Course: course}, nil)
}

// RecordSession stores the stop position and then advances course
// progress.
func (c Client) RecordSession(number, course, scene string, at time.Duration) (reg Registration, err error) {
	err = c.invoke(MethodRecordSession, resumeSetReq{Number: number, Course: course, Pos: Position{Scene: scene, At: at}}, &reg)
	return reg, err
}

// AddBookmark saves a bookmark.
func (c Client) AddBookmark(number string, b Bookmark) error {
	return c.invoke(MethodAddBookmark, bookmarkReq{Number: number, Bookmark: b}, nil)
}

// Stats fetches school statistics.
func (c Client) Stats() (st Statistics, err error) {
	err = c.invoke(MethodStats, nil, &st)
	return st, err
}
