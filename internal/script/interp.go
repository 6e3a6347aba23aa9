package script

import (
	"fmt"
	"strings"
	"time"
)

// host is the world a script instance acts on. The MHEG engine adapter
// (EngineHost) is the production implementation; tests may stub it.
type host interface {
	// After schedules f on virtual time.
	After(d time.Duration, f func())
	// Apply performs one object verb ("run", "stopobj", "pause",
	// "resume", "new", "delete", "show", "hide") on an alias; the
	// channel argument applies to "new".
	Apply(verb, alias, channel string) error
	// Status reports an alias's presentation status: "running",
	// "finished", "stopped" (never-run objects report "stopped").
	Status(alias string) (string, error)
	// Reply reports an alias's current selection state (user reply).
	Reply(alias string) (string, error)
	// WatchStatus calls f once when the alias next reaches the status.
	WatchStatus(alias, status string, f func()) error
	// Say delivers script narration to the application.
	Say(text string)
}

// maxStepsPerResume bounds straight-line execution between waits so a
// script without waits cannot spin the interpreter forever.
const maxStepsPerResume = 10000

// Instance is one activation of a program (an MHEG run-time script
// object's behaviour).
type Instance struct {
	prog *program
	host host
	pc   int
	vars map[string]string

	done bool
	err  error
	// steps counts executed instructions, for tests and accounting.
	steps int
	// onDone, when set, runs at termination (normal or error).
	onDone func(err error)
}

// start activates a program on a host and executes until the first
// wait (or completion).
func start(h host, p *program) *Instance {
	in := &Instance{prog: p, host: h, vars: make(map[string]string)}
	in.resume()
	return in
}

// Done reports whether the instance has terminated.
func (in *Instance) Done() bool { return in.done }

// Err reports the instance's terminal error, if any.
func (in *Instance) Err() error { return in.err }

// Var reads a script variable (for tests and the host application).
func (in *Instance) Var(name string) string { return in.vars[name] }

func (in *Instance) fail(format string, a ...any) {
	in.err = fmt.Errorf("script: %s", fmt.Sprintf(format, a...))
	in.finish()
}

func (in *Instance) finish() {
	if in.done {
		return
	}
	in.done = true
	if in.onDone != nil {
		in.onDone(in.err)
	}
}

// resume executes instructions until the instance blocks or ends.
func (in *Instance) resume() {
	steps := 0
	for !in.done {
		if in.pc >= len(in.prog.instrs) {
			in.finish() // falling off the end terminates normally
			return
		}
		steps++
		in.steps++
		if steps > maxStepsPerResume {
			in.fail("line %d: %d instructions without a wait — runaway loop", in.prog.instrs[in.pc].line, steps)
			return
		}
		instr := in.prog.instrs[in.pc]
		in.pc++
		switch instr.op {
		case opNop:
		case opRun, opStopObj, opPause, opResume, opNew, opDelete, opShow, opHide:
			verb := map[opCode]string{
				opRun: "run", opStopObj: "stopobj", opPause: "pause", opResume: "resume",
				opNew: "new", opDelete: "delete", opShow: "show", opHide: "hide",
			}[instr.op]
			if err := in.host.Apply(verb, instr.object, instr.arg); err != nil {
				in.fail("line %d: %v", instr.line, err)
				return
			}
		case opSet:
			in.vars[instr.Var] = in.expand(instr.arg)
		case opAdd:
			cur := parseNum(in.vars[instr.Var])
			in.vars[instr.Var] = formatNum(cur + parseNum(in.expand(instr.arg)))
		case opWait:
			in.host.After(instr.dur, in.resume)
			return
		case opWaitFor:
			status, err := in.host.Status(instr.object)
			if err != nil {
				in.fail("line %d: %v", instr.line, err)
				return
			}
			if status == instr.arg {
				continue // already there
			}
			if err := in.host.WatchStatus(instr.object, instr.arg, in.resume); err != nil {
				in.fail("line %d: %v", instr.line, err)
				return
			}
			return
		case opGoto:
			in.pc = instr.target
		case opIfGoto:
			ok, err := in.evalCond(instr.cond)
			if err != nil {
				in.fail("line %d: %v", instr.line, err)
				return
			}
			if ok {
				in.pc = instr.target
			}
		case opSay:
			in.host.Say(in.expand(instr.arg))
		case opStop:
			in.finish()
			return
		default:
			in.fail("line %d: bad opcode %d", instr.line, instr.op)
			return
		}
	}
}

func (in *Instance) evalCond(c *cond) (bool, error) {
	var replyErr, statusErr error
	ok := c.eval(in.vars,
		func(alias string) string {
			v, err := in.host.Reply(alias)
			if err != nil {
				replyErr = err
			}
			return v
		},
		func(alias string) string {
			v, err := in.host.Status(alias)
			if err != nil {
				statusErr = err
			}
			return v
		})
	if replyErr != nil {
		return false, replyErr
	}
	if statusErr != nil {
		return false, statusErr
	}
	return ok, nil
}

// expand substitutes $var tokens anywhere in the string with variable
// values; unknown variables expand to the empty string.
func (in *Instance) expand(s string) string {
	if !strings.Contains(s, "$") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '$' {
			b.WriteByte(s[i])
			i++
			continue
		}
		j := i + 1
		for j < len(s) && (isWordByte(s[j])) {
			j++
		}
		name := s[i+1 : j]
		if name == "" {
			b.WriteByte('$')
			i++
			continue
		}
		b.WriteString(in.vars[name])
		i = j
	}
	return b.String()
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

func parseNum(s string) int64 {
	var n int64
	var neg bool
	for i := 0; i < len(s); i++ {
		if i == 0 && s[i] == '-' {
			neg = true
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return 0
		}
		n = n*10 + int64(s[i]-'0')
	}
	if neg {
		return -n
	}
	return n
}

func formatNum(n int64) string { return fmt.Sprintf("%d", n) }
