package experiments

import (
	"fmt"
	"time"

	"mits/internal/atm"
	"mits/internal/conference"
	"mits/internal/courseware"
	"mits/internal/hytime"
	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/navigator"
	"mits/internal/script"
	"mits/internal/sim"
)

// This file holds the extension experiments: mechanisms the thesis
// describes or defers to future work (§6.2) beyond the core E1–E20 set.

// E21HyTimePipeline reproduces §2.3's complementary-roles claim: author
// in HyTime (expressive, address-rich), convert once, interchange and
// present as MHEG (final-form, links fully resolved). The measured
// asymmetry: presenting from HyTime pays address resolutions per
// traversal; the converted MHEG course pays none.
func E21HyTimePipeline() (*Report, error) {
	src := hytime.SampleCourse().Markup()

	doc, err := hytime.Parse(src)
	if err != nil {
		return nil, err
	}

	imd, err := hytime.ToIMD(doc)
	if err != nil {
		return nil, err
	}
	out, err := courseware.CompileIMD(imd, "hy")
	if err != nil {
		return nil, err
	}
	mhegBytes, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}

	// Presenting directly from HyTime: the engine resolves addresses at
	// every traversal (simulate a session touching each link and
	// querying each second of the schedule).
	hyEng := hytime.NewEngine(doc)
	for _, l := range doc.Links {
		if _, err := hyEng.Traverse(l.ID); err != nil {
			return nil, err
		}
	}
	for _, f := range doc.FCSs {
		span, err := hyEng.Span(f.ID, "t")
		if err != nil {
			return nil, err
		}
		for t := int64(0); t < span; t += 1000 {
			if _, err := hyEng.EventsAt(f.ID, "t", t); err != nil {
				return nil, err
			}
		}
	}

	// Presenting the converted MHEG course: play it and count address
	// resolutions (zero — MHEG links "are fully resolved and require no
	// further processing other than their direct execution", §2.3.2).
	clock := sim.NewClock()
	e := engine.New(clock)
	if _, err := e.Ingest(mhegBytes); err != nil {
		return nil, err
	}
	rt, err := e.NewRT(out.Root, "main")
	if err != nil {
		return nil, err
	}
	e.Run(rt)
	clock.Run()

	r := &Report{
		ID: "E21", Figure: "§2.3 / Fig 2.1–2.3", Title: "HyTime authoring → MHEG interchange pipeline",
		Header: []string{"stage", "value"},
		Rows: [][]string{
			{"HyTime source (authoring form)", bytesStr(int64(len(src)))},
			{"MHEG container (interchange form)", bytesStr(int64(len(mhegBytes)))},
			{"address resolutions presenting from HyTime", fmt.Sprint(hyEng.Resolutions)},
			{"address resolutions presenting from MHEG", "0 (links pre-resolved)"},
			{"virtual playback span of converted course", fmt.Sprint(clock.Now())},
		},
		Notes: []string{
			"§2.3.2: MHEG links \"are fully resolved and require no further processing\"",
		},
		Pass: hyEng.Resolutions > 10 && clock.Now() >= sim.Time(8*time.Second) &&
			len(out.Container.Items) > 10,
	}
	return r, nil
}

// E22ScriptedTeaching reproduces Fig 2.5: application-level
// synchronization through a script object — "complex synchronization
// taking into account previous user replies" — with a remediation loop
// that MHEG links alone cannot express (it needs the tries counter).
func E22ScriptedTeaching() (*Report, error) {
	src := []byte(`
run lecture
waitfor lecture finished
set tries 0
label ask
add tries 1
run quiz
wait 2s
if reply(quiz) == "53" goto praise
if tries >= 2 goto remediate
say wrong answer, asking again (attempt $tries)
goto ask
label praise
run praise
say correct after $tries attempt(s)
stop
label remediate
run review
say remediation after $tries attempts
`)
	type outcome struct {
		praised    bool
		remediated bool
		tries      string
		said       []string
		span       time.Duration
	}
	run := func(answers []string) (*outcome, error) {
		clock := sim.NewClock()
		e := engine.New(clock)
		lecture, err := mheg.NewAudioContent(eid("e22", 1), media.CodingWAV, "lec", 5*time.Second, 70)
		if err != nil {
			return nil, err
		}
		e.AddModel(lecture)
		e.AddModel(mheg.NewTextContent(eid("e22", 2), "How long is an ATM cell?"))
		e.AddModel(mheg.NewTextContent(eid("e22", 3), "Correct!"))
		e.AddModel(mheg.NewTextContent(eid("e22", 4), "Review the cells section."))
		e.AddModel(mheg.NewScript(eid("e22", 10), script.Language, src))
		o := &outcome{}
		inst, err := script.Activate(e, eid("e22", 10), map[string]mheg.ID{
			"lecture": eid("e22", 1), "quiz": eid("e22", 2),
			"praise": eid("e22", 3), "review": eid("e22", 4),
		}, func(s string) { o.said = append(o.said, s) })
		if err != nil {
			return nil, err
		}
		// The student answers 1s after each quiz appearance (quiz k
		// appears at 5s + (k-1)*2s).
		for i, ans := range answers {
			ans := ans
			clock.At(sim.Time(5*time.Second+time.Duration(i)*2*time.Second+time.Second), func(sim.Time) {
				rts := e.RTsOf(eid("e22", 2))
				if len(rts) > 0 {
					e.SetSelection(rts[0], mheg.StringValue(ans))
				}
			})
		}
		clock.Run()
		if !inst.Done() || inst.Err() != nil {
			return nil, fmt.Errorf("script did not finish: %v", inst.Err())
		}
		o.praised = len(e.RTsOf(eid("e22", 3))) > 0
		o.remediated = len(e.RTsOf(eid("e22", 4))) > 0
		o.tries = inst.Var("tries")
		o.span = clock.Now().Duration()
		return o, nil
	}

	first, err := run([]string{"53"})
	if err != nil {
		return nil, err
	}
	second, err := run([]string{"48", "53"})
	if err != nil {
		return nil, err
	}
	stubborn, err := run([]string{"48", "64", "32"})
	if err != nil {
		return nil, err
	}

	row := func(name string, o *outcome) []string {
		result := "remediation"
		if o.praised && !o.remediated {
			result = "praise"
		}
		return []string{name, o.tries, result, o.span.String()}
	}
	r := &Report{
		ID: "E22", Figure: "Fig 2.5 / §6.2", Title: "Script-class teaching flow: branch on previous user replies",
		Header: []string{"student", "tries", "outcome", "virtual span"},
		Rows: [][]string{
			row("answers correctly at once", first),
			row("correct on the second try", second),
			row("wrong twice → remediated", stubborn),
		},
		Notes: []string{
			"the tries counter and reply branching live in the script layer — above MHEG links (Fig 2.7's S level)",
		},
		Pass: first.praised && first.tries == "1" &&
			second.praised && second.tries == "2" &&
			stubborn.remediated && !stubborn.praised && stubborn.tries == "2",
	}
	return r, nil
}

// E23QoSAblation isolates the design choice behind E17's result:
// per-class priority queueing with partitioned buffers versus a single
// shared FIFO. Same reserved contract, same congestion — only the
// switch scheduling differs.
func E23QoSAblation() (*Report, error) {
	clip := media.EncodeMPEG(media.VideoParams{Duration: 6 * time.Second, BitRate: 1.5e6, Seed: 23})
	run := func(fifo bool) (*navigator.StreamStats, error) {
		n := atm.New()
		n.FIFO = fifo
		n.BufferCells = 96
		srv := n.AddHost("s")
		cli := n.AddHost("c")
		x1 := n.AddHost("x1")
		x2 := n.AddHost("x2")
		s1 := n.AddSwitch("sw1")
		s2 := n.AddSwitch("sw2")
		n.Connect(srv, s1, 155e6, 200*time.Microsecond)
		n.Connect(x1, s1, 155e6, 200*time.Microsecond)
		n.Connect(s1, s2, 10e6, 200*time.Microsecond)
		n.Connect(s2, cli, 155e6, 200*time.Microsecond)
		n.Connect(s2, x2, 155e6, 200*time.Microsecond)
		flood, err := n.Open(x1, x2, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			return nil, err
		}
		// Close only after StreamVideo drains the clock: Close tears
		// down the flood's switch routes, which would uncongest the
		// trunk mid-experiment.
		defer flood.Close()
		for i := 0; i < 7000; i++ {
			if err := flood.Send(make([]byte, 4000)); err != nil {
				return nil, err
			}
		}
		return navigator.StreamVideo(n, srv, cli, atm.VBRContract(2e6, 8e6, 200), clip, 500*time.Millisecond)
	}
	priority, err := run(false)
	if err != nil {
		return nil, err
	}
	fifo, err := run(true)
	if err != nil {
		return nil, err
	}
	row := func(name string, s *navigator.StreamStats) []string {
		return []string{name,
			fmt.Sprintf("%d/%d", s.Delivered, s.Frames),
			fmt.Sprintf("%.1f%%", 100*s.MissRate()),
			dur(time.Duration(s.Jitter.Mean()))}
	}
	r := &Report{
		ID: "E23", Figure: "ablation of §3.3", Title: "Switch scheduling ablation: per-class priority vs shared FIFO (same reserved contract, same flood)",
		Header: []string{"scheduling", "delivered", "miss rate", "mean jitter"},
		Rows: [][]string{
			row("per-class priority + partitioned buffers", priority),
			row("single shared FIFO", fifo),
		},
		Notes: []string{"the traffic contract alone is worthless without switch scheduling to honour it"},
		Pass:  priority.MissRate() <= 0.01 && fifo.MissRate() > 0.3,
	}
	return r, nil
}

// E24Conferencing reproduces the §5.2.1 multimedia conferencing
// facility: a student–teacher A/V call across a congested metro trunk,
// reserved vs best-effort, with the 150 ms interactivity budget.
func E24Conferencing() (*Report, error) {
	run := func(bestEffort bool) (*conference.Session, error) {
		n := atm.New()
		n.BufferCells = 96
		student := n.AddHost("student")
		teacher := n.AddHost("teacher")
		x1 := n.AddHost("b1")
		x2 := n.AddHost("b2")
		campus := n.AddSwitch("campus")
		metro := n.AddSwitch("metro")
		n.Connect(student, campus, 155e6, 500*time.Microsecond)
		n.Connect(x1, campus, 155e6, 500*time.Microsecond)
		n.Connect(campus, metro, 10e6, 2*time.Millisecond)
		n.Connect(metro, teacher, 155e6, 500*time.Microsecond)
		n.Connect(metro, x2, 155e6, 500*time.Microsecond)
		flood, err := n.Open(x1, x2, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			return nil, err
		}
		// Closed after the clock run below; closing earlier would tear
		// down the flood routes and uncongest the trunk.
		defer flood.Close()
		for i := 0; i < 9000; i++ {
			flood.Send(make([]byte, 4000))
		}
		s, err := conference.Dial(n, student, teacher, conference.Options{
			Duration: 8 * time.Second, VideoEnabled: true, BestEffort: bestEffort,
		})
		if err != nil {
			return nil, err
		}
		n.Clock().Run()
		return s, nil
	}
	reserved, err := run(false)
	if err != nil {
		return nil, err
	}
	bestEffort, err := run(true)
	if err != nil {
		return nil, err
	}
	row := func(name string, s *conference.Session) []string {
		a := &s.Quality[0].Audio
		usable := "no"
		if s.Usable() {
			usable = "yes"
		}
		return []string{name,
			fmt.Sprintf("%.1f%%", 100*a.LossRate()),
			dur(time.Duration(a.Latency.Mean())),
			fmt.Sprintf("%.1f%%", 100*a.LateRate()),
			usable}
	}
	r := &Report{
		ID: "E24", Figure: "§5.2.1 / §3.1.1", Title: "Student–teacher A/V conference across a congested trunk",
		Header: []string{"contracts", "audio loss", "mouth-to-ear", "frames >150ms", "conversational"},
		Rows: [][]string{
			row("reserved (CBR audio + rt-VBR video)", reserved),
			row("best-effort (UBR)", bestEffort),
		},
		Notes: []string{"help on demand needs reserved two-way channels, not just bandwidth"},
		Pass:  reserved.Usable() && !bestEffort.Usable(),
	}
	return r, nil
}
