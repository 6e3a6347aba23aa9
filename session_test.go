package mits

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

const sessionGolden = "testdata/session.golden"

// sessionMains are the main packages TestSessionTranscript builds and
// runs. Every other main package of the module is in mainsRunElsewhere.
var sessionMains = []string{
	"cmd/mitsd", "cmd/navigator", "cmd/author", "cmd/producer",
	"examples/adaptive", "examples/atmcourse", "examples/broadband", "examples/quickstart", "examples/teleschool",
}

// mainsRunElsewhere names the main packages the transcript does not
// run, each with what runs it instead.
var mainsRunElsewhere = map[string]string{
	"cmd/experiments": "prints internal/experiments/testdata/reports.golden, which TestAllExperimentsPassShapeChecks holds",
	"cmd/mitslint":    "make lint runs it over the tree; the lint goldens hold each analyzer's diagnostics",
}

// TestSessionTranscript builds the commands and the examples and runs
// them as a user would: the sample session of §5.4 piped into a real
// navigator against a real mitsd, a restart of mitsd on its saved
// image, the authoring chain author → producer → mitsd, the start-up
// refusals, and each example once. Everything they print, with
// student numbers, addresses and temporary paths normalised, must
// equal testdata/session.golden; a missing fixture is written and the
// test fails once.
func TestSessionTranscript(t *testing.T) {
	bin := buildMains(t)
	work := t.TempDir()
	var out strings.Builder

	// The examples are independent of the daemon legs; they run beside
	// them, one at a time, and their output joins the transcript last.
	// The test does not end, nor remove their binaries, before they do.
	var examples string
	var examplesErr error
	examplesDone := make(chan struct{})
	go func() {
		defer close(examplesDone)
		examples, examplesErr = runExamples(bin)
	}()
	t.Cleanup(func() { <-examplesDone })

	// The §5.4 session on a fresh image.
	db := filepath.Join(work, "school.db")
	d := startMitsd(t, &out, bin, "-addr", "127.0.0.1:0", "-db", db)
	nav := startNavigator(t, &out, bin, d.addr)
	for _, line := range []string{
		"help", "register Ada Lovelace", "stats", "programs", "courses Engineering", "intro ELG5121",
		"enroll ELG5121", "start ELG5121", "tick 5", "screen", "click Continue", "tick 2", "bookmark cells",
		"library", "library network", "read library/atm-handbook.html",
		"rooms", "join atm-questions", "say atm-questions what is a cell?", "room atm-questions",
		"boards", "board announcements",
	} {
		nav.run(line)
	}
	number := regexp.MustCompile(`your student number is (\d+)`).FindStringSubmatch(out.String())
	if number == nil {
		t.Fatalf("register printed no student number:\n%s", out.String())
	}
	nav.run("mail " + number[1] + " remember the GCRA")
	nav.run("inbox")
	nav.run("exercises ELG5121")
	nav.run("take atm-ex1")
	nav.run("answer atm-ex1 p1=0 p2=48 p3=leaky-bucket")
	nav.run("contest ELG5121")
	nav.run("goto quiz")
	stored := nav.run("tick 1")
	nav.run("exit")
	// An unknown number: the golden's line names the route that refused
	// it, school.Login (school.Student until the login stopped
	// downloading the record).
	nav.run("login 1")
	nav.quit()
	d.stop()

	// The daemon's own restart on its saved image: the registration,
	// the enrolment and the stop position survive; the exercise book is
	// restocked. Grades and mail are not persisted, so the contest and
	// the inbox are empty.
	d = startMitsd(t, &out, bin, "-addr", "127.0.0.1:0", "-db", db)
	nav = startNavigator(t, &out, bin, d.addr)
	nav.run("login " + number[1])
	nav.run("stats")
	resumed := nav.run("start ELG5121")
	nav.run("exercises ELG5121")
	nav.run("contest ELG5121")
	nav.run("inbox")
	nav.run("exit")
	nav.quit()
	d.stop()
	sceneOf := regexp.MustCompile(`scene[= ]"([^"]*)"`)
	if s, r := sceneOf.FindStringSubmatch(stored), sceneOf.FindStringSubmatch(resumed); s == nil || r == nil || s[1] != r[1] {
		t.Errorf("restart did not resume in the stored scene:\nstored  %q\nresumed %q", stored, resumed)
	}

	// Flag combinations mitsd refuses before it serves anything.
	runCmd(t, &out, bin, 1, "mitsd", "-cluster", "127.0.0.1:1", "-db", filepath.Join(work, "front.db"))
	runCmd(t, &out, bin, 1, "mitsd", "-shard", "-cluster", "127.0.0.1:1")
	if _, err := os.Stat(filepath.Join(work, "front.db")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused -cluster -db start touched its image: %v", err)
	}

	// The authoring chain: editor views, compile, produce, serve.
	course := filepath.Join(work, "atm.mheg")
	produced := filepath.Join(work, "produced", "school.db")
	if err := os.Mkdir(filepath.Dir(produced), 0o755); err != nil {
		t.Fatal(err)
	}
	runCmd(t, &out, bin, 0, "author", "-sample", "atm", "-views")
	runCmd(t, &out, bin, 0, "author", "-sample", "hyper", "-views")
	runCmd(t, &out, bin, 0, "author", "-sample", "atm", "-o", course)
	runCmd(t, &out, bin, 0, "producer", "-course", course, "-name", "atm-course", "-keywords", "network/atm", "-db", produced)
	d = startMitsd(t, &out, bin, "-addr", "127.0.0.1:0", "-db", produced, "-no-samples")
	nav = startNavigator(t, &out, bin, d.addr)
	nav.run("library")
	nav.run("read store/atm/cell-format.jpg")
	nav.quit()
	d.stop()

	// producer refuses an image it cannot read and leaves it as it was.
	junk := filepath.Join(work, "junk.db")
	junkBytes := []byte("not an image\x00\x01\x02")
	if err := os.WriteFile(junk, junkBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	runCmd(t, &out, bin, 1, "producer", "-course", course, "-name", "atm-course", "-db", junk)
	if got, err := os.ReadFile(junk); err != nil || !bytes.Equal(got, junkBytes) {
		t.Errorf("producer changed an image it could not read: %d bytes, was %d (%v)", len(got), len(junkBytes), err)
	}

	got := out.String()
	got = strings.ReplaceAll(got, work, "<tmp>")
	got = strings.ReplaceAll(got, number[1], "<student>")
	got = regexp.MustCompile(`127\.0\.0\.1:\d+`).ReplaceAllString(got, "<addr>")
	<-examplesDone
	if examplesErr != nil {
		t.Error(examplesErr)
	}
	got += examples
	checkNavigatorCommands(t, got)
	checkSessionGolden(t, got)
}

// buildMains builds sessionMains into a temporary directory.
func buildMains(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, m := range sessionMains {
		args = append(args, "./"+m)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCmd runs one of the built commands to completion, appends its
// command line, output and exit status to out, and fails the test
// unless it exits with want.
func runCmd(t *testing.T, out *strings.Builder, bin string, want int, name string, args ...string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// One that serves when it should have refused is killed.
	watchdog := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	err := cmd.Wait()
	watchdog.Stop()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(out, "\n$ %s %s\n%s", name, strings.Join(args, " "), stripLogTime(buf.String()))
	if code != 0 {
		fmt.Fprintf(out, "exit status %d\n", code)
	}
	if code != want {
		t.Errorf("%s %v exited %d, want %d:\n%s", name, args, code, want, buf.String())
	}
}

// runExamples runs each example once, in order, and returns what they
// printed and the failures.
func runExamples(bin string) (string, error) {
	var out strings.Builder
	var errs []error
	for _, m := range sessionMains {
		if name, ok := strings.CutPrefix(m, "examples/"); ok {
			got, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			fmt.Fprintf(&out, "\n$ %s\n%s", name, got)
			if err != nil {
				errs = append(errs, fmt.Errorf("example %s: %w", name, err))
			}
		}
	}
	return out.String(), errors.Join(errs...)
}

var logTime = regexp.MustCompile(`(?m)^time=\S+ `)

// stripLogTime drops the timestamp that opens each slog line.
func stripLogTime(s string) string { return logTime.ReplaceAllString(s, "") }

// daemon is a running mitsd whose log goes into the transcript.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	out  *strings.Builder
	log  *bufio.Reader
	addr string
}

// startMitsd starts mitsd and waits until it logs the address it
// serves on. The test's cleanup kills it if the test ends first.
func startMitsd(t *testing.T, out *strings.Builder, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "mitsd"), args...)
	pr, pw := io.Pipe()
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		pw.Close()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	d := &daemon{t: t, cmd: cmd, out: out, log: bufio.NewReader(pr)}
	fmt.Fprintf(out, "\n$ mitsd %s\n", strings.Join(args, " "))
	served := regexp.MustCompile(`msg=serving .*addr=(\S+)`)
	for d.addr == "" {
		line, err := d.log.ReadString('\n')
		out.WriteString(stripLogTime(line))
		if err != nil {
			t.Fatalf("mitsd %v exited before serving:\n%s", args, out.String())
		}
		if m := served.FindStringSubmatch(line); m != nil {
			d.addr = m[1]
		}
	}
	return d
}

// stop sends SIGTERM, waits for the daemon to save and exit, and
// appends the rest of its log.
func (d *daemon) stop() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	// A daemon that does not finish its shutdown is killed, which ends
	// the read of its log.
	watchdog := time.AfterFunc(time.Minute, func() { d.cmd.Process.Kill() })
	defer watchdog.Stop()
	rest, err := io.ReadAll(d.log)
	if err != nil {
		d.t.Fatal(err)
	}
	d.out.WriteString(stripLogTime(string(rest)))
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		d.t.Errorf("mitsd exited %d after SIGTERM", code)
	}
}

// navSession is a navigator driven one command at a time: each
// command is echoed after the prompt, as a terminal would show it.
type navSession struct {
	t   *testing.T
	cmd *exec.Cmd
	in  io.WriteCloser
	out *strings.Builder
	r   *bufio.Reader
}

const prompt = "teleschool> "

func startNavigator(t *testing.T, out *strings.Builder, bin, addr string) *navSession {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "navigator"), "-server", addr)
	in, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A navigator that stops answering is killed, which ends the read
	// that waits for it.
	watchdog := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	t.Cleanup(func() {
		watchdog.Stop()
		cmd.Process.Kill()
		cmd.Wait()
	})
	fmt.Fprintf(out, "\n$ navigator -server %s\n", addr)
	n := &navSession{t: t, cmd: cmd, in: in, out: out, r: bufio.NewReader(stdout)}
	out.WriteString(n.untilPrompt())
	return n
}

// run sends one command and returns what the navigator printed for it.
func (n *navSession) run(line string) string {
	n.t.Helper()
	if _, err := io.WriteString(n.in, line+"\n"); err != nil {
		n.t.Fatalf("navigator: %v", err)
	}
	got := n.untilPrompt()
	fmt.Fprintf(n.out, "%s%s\n%s", prompt, line, got)
	return got
}

// quit ends the session and waits for the navigator to exit.
func (n *navSession) quit() {
	n.t.Helper()
	fmt.Fprintf(n.out, "%squit\n", prompt)
	if _, err := io.WriteString(n.in, "quit\n"); err != nil {
		n.t.Fatal(err)
	}
	if rest, _ := io.ReadAll(n.r); len(rest) > 0 {
		n.out.Write(rest)
	}
	if err := n.cmd.Wait(); err != nil {
		n.t.Errorf("navigator: %v", err)
	}
}

// untilPrompt reads up to the next prompt and returns what came before it.
func (n *navSession) untilPrompt() string {
	n.t.Helper()
	var b []byte
	for !bytes.HasSuffix(b, []byte(prompt)) {
		c, err := n.r.ReadByte()
		if err != nil {
			n.t.Fatalf("navigator stopped before its prompt: %v\n%s", err, n.out.String()+string(b))
		}
		b = append(b, c)
	}
	return string(b[:len(b)-len(prompt)])
}

// checkNavigatorCommands holds the navigator's three lists of its
// commands to one another: the help line in the transcript, the cases
// of its command switch and the commands its package comment names.
func checkNavigatorCommands(t *testing.T, transcript string) {
	t.Helper()
	m := regexp.MustCompile(`(?m)^commands: (.*)$`).FindStringSubmatch(transcript)
	if m == nil {
		t.Fatal("the transcript holds no help line")
	}
	help := strings.Fields(m[1])

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cmd/navigator/main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var cases []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sw, ok := n.(*ast.SwitchStmt); ok {
			if id, ok := sw.Tag.(*ast.Ident); ok && id.Name == "cmd" {
				for _, c := range sw.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if lit, ok := e.(*ast.BasicLit); ok {
							s, _ := strconv.Unquote(lit.Value)
							cases = append(cases, s)
						}
					}
				}
			}
		}
		return true
	})
	var doc []string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		// The command table is the indented block that lists the
		// commands with their arguments and a description.
		if strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "\tnavigator ") {
			doc = append(doc, strings.Fields(line)[0])
		}
	}
	slices.Sort(help)
	slices.Sort(cases)
	slices.Sort(doc)
	if !slices.Equal(help, cases) || !slices.Equal(doc, cases) {
		t.Errorf("navigator's command lists disagree:\nswitch  %v\nhelp    %v\ncomment %v", cases, help, doc)
	}
}

func checkSessionGolden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(sessionGolden)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(sessionGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote new fixture %s; review it and run again", sessionGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d changed\n got %q\nwant %q", sessionGolden, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines in the transcript, fixture has %d", sessionGolden, len(gotLines), len(wantLines))
	}
}
