// Package script implements the MITS scripting language — the script
// class support the thesis lists as future work (§6.2: "script object
// class was not studied because of the unavailability of materials and
// standards"; MHEG Part III was to provide it).
//
// The language realizes application-level synchronization (Fig 2.5):
// "the script may contain complex synchronization taking into account
// previous user replies, calculated values, and the state of system
// resources, e.g., the overall view of how a course is to be taught."
// It is deliberately small: line-oriented, with variables, arithmetic,
// conditionals on engine state and user replies, waits on virtual time
// and on object status, and the MHEG elementary actions as verbs.
//
//	# teach the section, then branch on the quiz reply
//	run scene-intro
//	waitfor scene-intro finished
//	set tries 0
//	label ask
//	run quiz
//	waitfor quiz stopped
//	add tries 1
//	if reply(quiz-answer) == "53 bytes" goto praise
//	if tries >= 2 goto remediate
//	goto ask
//	label praise
//	run well-done
//	stop
//	label remediate
//	run review-section
//	stop
//
// Scripts compile to a program once; each activation is an independent
// interpreter instance driven by the MHEG engine's clock.
package script

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// opCode enumerates the instructions.
type opCode int

// Instructions.
const (
	opNop     opCode = iota
	opRun            // run <object>
	opStopObj        // stopobj <object>
	opPause          // pause <object>
	opResume         // resume <object>
	opNew            // new <object> [channel]
	opDelete         // delete <object>
	opShow           // show <object> / hide <object>
	opHide
	opSet     // set <var> <expr>
	opAdd     // add <var> <expr>
	opWait    // wait <duration>
	opWaitFor // waitfor <object> running|finished|stopped
	opIfGoto  // if <cond> goto <label>
	opGoto    // goto <label>
	opSay     // say <text...>  (emitted to the host)
	opStop    // stop (end of script)
)

// instr is one compiled instruction.
type instr struct {
	op     opCode
	object string // target object alias
	Var    string
	arg    string // label, channel, status name or literal text
	dur    time.Duration
	cond   *cond
	target int // resolved jump target
	line   int // source line, for errors
}

// condKind distinguishes condition operand sources.
type condKind int

// Condition operand kinds.
const (
	condVar    condKind = iota // variable value
	condReply                  // reply(<object>): the object's selection state
	condStatus                 // status(<object>): running|finished|stopped
)

// cond is a comparison in an `if` instruction.
type cond struct {
	kind    condKind
	operand string // variable name or object alias
	op      string // == != >= <= > <
	value   string // literal (number or quoted string)
}

// program is a compiled script.
type program struct {
	source []byte
	instrs []instr
	labels map[string]int
}

// compile parses script source into a program.
func compile(src []byte) (*program, error) {
	p := &program{source: src, labels: make(map[string]int)}
	lines := strings.Split(string(src), "\n")
	// First pass: collect labels.
	for _, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "label" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("script: label needs a name: %q", raw)
			}
			if _, dup := p.labels[fields[1]]; dup {
				return nil, fmt.Errorf("script: duplicate label %q", fields[1])
			}
			p.labels[fields[1]] = -1 // placeholder
		}
	}
	for ln, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		instr, err := p.compileLine(line, ln+1)
		if err != nil {
			return nil, err
		}
		if instr.op == opNop && instr.arg != "" { // label marker
			p.labels[instr.arg] = len(p.instrs)
			continue
		}
		p.instrs = append(p.instrs, instr)
	}
	// Resolve jumps.
	for i := range p.instrs {
		in := &p.instrs[i]
		if in.op != opGoto && in.op != opIfGoto {
			continue
		}
		tgt, ok := p.labels[in.arg]
		if !ok || tgt < 0 {
			return nil, fmt.Errorf("script: line %d: unknown label %q", in.line, in.arg)
		}
		in.target = tgt
	}
	if len(p.instrs) == 0 {
		return nil, fmt.Errorf("script: empty program")
	}
	return p, nil
}

func stripComment(raw string) string {
	if i := strings.IndexByte(raw, '#'); i >= 0 {
		raw = raw[:i]
	}
	return strings.TrimSpace(raw)
}

func (p *program) compileLine(line string, ln int) (instr, error) {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]
	bad := func(format string, a ...any) (instr, error) {
		return instr{}, fmt.Errorf("script: line %d: %s", ln, fmt.Sprintf(format, a...))
	}
	need := func(n int) bool { return len(args) == n }
	switch cmd {
	case "label":
		return instr{op: opNop, arg: args[0], line: ln}, nil
	case "run", "stopobj", "pause", "resume", "delete", "show", "hide":
		if !need(1) {
			return bad("%s needs one object", cmd)
		}
		op := map[string]opCode{
			"run": opRun, "stopobj": opStopObj, "pause": opPause,
			"resume": opResume, "delete": opDelete, "show": opShow, "hide": opHide,
		}[cmd]
		return instr{op: op, object: args[0], line: ln}, nil
	case "new":
		if len(args) < 1 || len(args) > 2 {
			return bad("new <object> [channel]")
		}
		in := instr{op: opNew, object: args[0], line: ln}
		if len(args) == 2 {
			in.arg = args[1]
		}
		return in, nil
	case "set", "add":
		if len(args) != 2 {
			return bad("%s <var> <value>", cmd)
		}
		op := opSet
		if cmd == "add" {
			op = opAdd
		}
		return instr{op: op, Var: args[0], arg: args[1], line: ln}, nil
	case "wait":
		if !need(1) {
			return bad("wait <duration>")
		}
		d, err := time.ParseDuration(args[0])
		if err != nil || d < 0 {
			return bad("bad duration %q", args[0])
		}
		return instr{op: opWait, dur: d, line: ln}, nil
	case "waitfor":
		if !need(2) {
			return bad("waitfor <object> running|finished|stopped")
		}
		switch args[1] {
		case "running", "finished", "stopped":
		default:
			return bad("bad status %q", args[1])
		}
		return instr{op: opWaitFor, object: args[0], arg: args[1], line: ln}, nil
	case "goto":
		if !need(1) {
			return bad("goto <label>")
		}
		return instr{op: opGoto, arg: args[0], line: ln}, nil
	case "if":
		// if <operand> <op> <value> goto <label>
		rest := strings.Join(args, " ")
		cond, label, err := parseCond(rest)
		if err != nil {
			return bad("%v", err)
		}
		return instr{op: opIfGoto, cond: cond, arg: label, line: ln}, nil
	case "say":
		return instr{op: opSay, arg: strings.Join(args, " "), line: ln}, nil
	case "stop":
		return instr{op: opStop, line: ln}, nil
	default:
		return bad("unknown command %q", cmd)
	}
}

// parseCond parses `<operand> <op> <value> goto <label>`; value may be
// a quoted string containing spaces.
func parseCond(s string) (*cond, string, error) {
	gi := strings.LastIndex(s, " goto ")
	if gi < 0 {
		return nil, "", fmt.Errorf("if needs 'goto <label>'")
	}
	label := strings.TrimSpace(s[gi+len(" goto "):])
	expr := strings.TrimSpace(s[:gi])
	if label == "" {
		return nil, "", fmt.Errorf("if needs a label")
	}
	var op string
	for _, cand := range []string{"==", "!=", ">=", "<=", ">", "<"} {
		if i := strings.Index(expr, cand); i > 0 {
			op = cand
			left := strings.TrimSpace(expr[:i])
			right := strings.TrimSpace(expr[i+len(cand):])
			cond := &cond{op: op, value: unquote(right)}
			switch {
			case strings.HasPrefix(left, "reply(") && strings.HasSuffix(left, ")"):
				cond.kind = condReply
				cond.operand = left[len("reply(") : len(left)-1]
			case strings.HasPrefix(left, "status(") && strings.HasSuffix(left, ")"):
				cond.kind = condStatus
				cond.operand = left[len("status(") : len(left)-1]
			default:
				cond.kind = condVar
				cond.operand = left
			}
			if cond.operand == "" {
				return nil, "", fmt.Errorf("empty condition operand")
			}
			return cond, label, nil
		}
	}
	return nil, "", fmt.Errorf("no comparison operator in %q", expr)
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// eval evaluates the condition given variable and engine state lookups.
func (c *cond) eval(vars map[string]string, reply func(string) string, status func(string) string) bool {
	var left string
	switch c.kind {
	case condVar:
		left = vars[c.operand]
	case condReply:
		left = reply(c.operand)
	case condStatus:
		left = status(c.operand)
	}
	switch c.op {
	case "==":
		return left == c.value
	case "!=":
		return left != c.value
	}
	// Ordering: numeric when both parse, else lexicographic.
	ln, lerr := strconv.ParseFloat(left, 64)
	rn, rerr := strconv.ParseFloat(c.value, 64)
	if lerr == nil && rerr == nil {
		switch c.op {
		case ">":
			return ln > rn
		case "<":
			return ln < rn
		case ">=":
			return ln >= rn
		case "<=":
			return ln <= rn
		}
	}
	switch c.op {
	case ">":
		return left > c.value
	case "<":
		return left < c.value
	case ">=":
		return left >= c.value
	case "<=":
		return left <= c.value
	}
	return false
}

// Language is the identifier carried by MHEG script objects holding
// this language.
const Language = "mits-script"
