package experiments

import (
	"fmt"
	"time"

	"mits/internal/courseware"
	"mits/internal/media"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/sched"
	"mits/internal/sim"
)

func eid(app string, n uint32) mheg.ID { return mheg.ID{App: app, Num: n} }

// E1Lifecycle reproduces Fig 2.4: the MHEG object life cycle — form (a)
// interchange bytes → form (b) decoded models → form (c) run-time
// objects → deletion/destruction — counted per stage over 1000
// objects.
func E1Lifecycle() (*Report, error) {
	const n = 1000
	enc := codec.ASN1()

	// Author n content objects.
	objs := make([]mheg.Object, n)
	for i := range objs {
		c := mheg.NewVideoContent(eid("e1", uint32(i+1)), fmt.Sprintf("store/v%d.mpg", i), mheg.Size{W: 352, H: 240}, time.Second)
		c.Info.Name = fmt.Sprintf("clip %d", i)
		objs[i] = c
	}

	formA := make([][]byte, n)
	var wire int64
	for i, o := range objs {
		data, err := enc.Encode(o)
		if err != nil {
			return nil, err
		}
		formA[i] = data
		wire += int64(len(data))
	}

	clock := sim.NewClock()
	e := engine.New(clock)
	for _, data := range formA {
		if _, err := e.Ingest(data); err != nil {
			return nil, err
		}
	}
	decoded := e.Models()

	rts := make([]engine.RTID, n)
	for i := range objs {
		rt, err := e.NewRT(objs[i].Base().ID, "stage")
		if err != nil {
			return nil, err
		}
		rts[i] = rt
	}
	created := e.RTs()

	for _, rt := range rts {
		e.Run(rt)
	}
	span := clock.Run().Duration()

	for _, rt := range rts {
		e.Delete(rt)
	}
	for _, o := range objs {
		e.Destroy(o.Base().ID)
	}

	r := &Report{
		ID: "E1", Figure: "Fig 2.4", Title: "MHEG object life cycle, 1000 objects per stage",
		Header: []string{"stage", "form transition", "outcome"},
		Rows: [][]string{
			{"encode", "internal → (a)", fmt.Sprintf("%d coded objects", len(formA))},
			{"decode+validate", "(a) → (b)", fmt.Sprintf("%d models", decoded)},
			{"new", "(b) → (c)", fmt.Sprintf("%d run-time objects", created)},
			{"run+finish", "(c) presented", fmt.Sprintf("virtual span %v, %d events", span, clock.Fired())},
			{"delete+destroy", "(c),(b) → gone", fmt.Sprintf("%d models, %d run-time objects left", e.Models(), e.RTs())},
		},
		Notes: []string{fmt.Sprintf("wire volume %s for %d objects (%.0f B/object)", bytesStr(wire), n, float64(wire)/n)},
		Pass: decoded == n && created == n && e.RTs() == 0 && e.Models() == 0 &&
			e.Stats.ObjectsDecoded == n,
	}
	return r, nil
}

// E2Synchronization reproduces Fig 2.6: atomic and elementary
// synchronization over composites of growing size, verifying that
// serial composition takes the sum of durations and parallel the max.
func E2Synchronization() (*Report, error) {
	r := &Report{
		ID: "E2", Figure: "Fig 2.6", Title: "Atomic/elementary/chained synchronization spans",
		Header: []string{"objects", "mechanism", "virtual span", "expected", "events"},
		Pass:   true,
	}
	for _, n := range []int{2, 4, 16, 64} {
		for _, mode := range []string{"serial-chain", "parallel"} {
			clock := sim.NewClock()
			e := engine.New(clock)
			ids := make([]mheg.ID, n)
			for i := range ids {
				ids[i] = eid("e2", uint32(i+1))
				a, err := mheg.NewAudioContent(ids[i], media.CodingWAV, "x", time.Second, 70)
				if err != nil {
					return nil, err
				}
				e.AddModel(a)
			}
			var expect time.Duration
			if mode == "parallel" {
				expect = time.Second
				action := mheg.RunAll(eid("e2", 1000), ids...)
				e.AddModel(action)
				e.ApplyAction(action.ID)
			} else {
				expect = time.Duration(n) * time.Second
				chain := sched.Chained{Sequence: ids}
				action, links, err := chain.Compile(eid("e2", 1000))
				if err != nil {
					return nil, err
				}
				e.AddModel(action)
				for _, l := range links {
					e.AddModel(l)
					e.ArmLink(l.ID)
				}
				e.ApplyAction(action.ID)
			}
			span := clock.Run().Duration()
			if span != expect {
				r.Pass = false
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(n), mode, dur(span), dur(expect), fmt.Sprint(clock.Fired()),
			})
		}
	}
	// Elementary offsets (T1/T2) and cyclic repetition.
	clock := sim.NewClock()
	e := engine.New(clock)
	a, _ := mheg.NewAudioContent(eid("e2", 1), media.CodingWAV, "x", time.Second, 70)
	b, _ := mheg.NewAudioContent(eid("e2", 2), media.CodingWAV, "x", time.Second, 70)
	e.AddModel(a)
	e.AddModel(b)
	el := sched.Elementary{A: eid("e2", 1), B: eid("e2", 2), T1: 500 * time.Millisecond, T2: 3 * time.Second}
	action, err := el.Compile(eid("e2", 1000))
	if err != nil {
		return nil, err
	}
	e.AddModel(action)
	e.ApplyAction(action.ID)
	span := clock.Run().Duration()
	if span != 4*time.Second {
		r.Pass = false
	}
	r.Rows = append(r.Rows, []string{"2", "elementary T1=0.5s T2=3s", dur(span), "4s", fmt.Sprint(clock.Fired())})
	return r, nil
}

// E3Interchange reproduces Figs 2.7–2.9: the interchange model. The
// same courseware container is coded in the binary (ASN.1-role) and
// textual (SGML-role) notations and decoded back; the sizes quantify
// why the binary form is the wire default.
func E3Interchange() (*Report, error) {
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E3", Figure: "Figs 2.7–2.9", Title: "Interchange of a full courseware container, both notations",
		Header: []string{"encoding", "bytes", "objects decoded"},
	}
	sizes := map[string]int{}
	for _, enc := range []codec.Encoding{codec.ASN1(), codec.SGML()} {
		data, err := enc.Encode(out.Container)
		if err != nil {
			return nil, err
		}
		decoded, err := enc.Decode(data)
		if err != nil {
			return nil, err
		}
		sizes[enc.Name()] = len(data)
		r.Rows = append(r.Rows, []string{
			enc.Name(), fmt.Sprint(len(data)), fmt.Sprint(len(decoded.(*mheg.Container).Items)),
		})
	}
	ratio := float64(sizes["sgml"]) / float64(sizes["asn1"])
	r.Notes = append(r.Notes, fmt.Sprintf("sgml/asn1 size ratio %.2f× — binary is the wire format, text the authoring format", ratio))
	r.Pass = sizes["asn1"] < sizes["sgml"]
	return r, nil
}

// E11ClassLibrary reproduces Fig 4.5: one instance of every class in
// the basic MHEG library, validated and coded.
func E11ClassLibrary() (*Report, error) {
	objs := map[string]mheg.Object{
		"content (video)":     mheg.NewVideoContent(eid("e11", 1), "store/v.mpg", mheg.Size{W: 64, H: 128}, 6*time.Second),
		"content (image)":     mheg.NewImageContent(eid("e11", 2), "store/i.jpg", mheg.Size{W: 640, H: 480}),
		"content (text)":      mheg.NewTextContent(eid("e11", 3), "inline text"),
		"content (value)":     mheg.NewGenericValue(eid("e11", 4), mheg.IntValue(42)),
		"content (non-media)": mheg.NewNonMediaContent(eid("e11", 5), mheg.CodingHyTime, []byte("<hytime/>")),
		"mux content": mheg.NewMultiplexedContent(eid("e11", 6), media.CodingMPEG, "store/m.mpg",
			mheg.StreamDesc{StreamID: 1, Class: media.ClassVideo, Coding: media.CodingMPEG},
			mheg.StreamDesc{StreamID: 2, Class: media.ClassAudio, Coding: media.CodingWAV}),
		"composite":  mheg.NewComposite(eid("e11", 7), eid("e11", 1), eid("e11", 2)),
		"script":     mheg.NewScript(eid("e11", 8), "mits-script", []byte("run intro")),
		"link":       mheg.OnSelect(eid("e11", 9), eid("e11", 3), mheg.Act(mheg.OpRun, eid("e11", 1))),
		"action":     mheg.RunAll(eid("e11", 10), eid("e11", 1)),
		"container":  mheg.NewContainer(eid("e11", 11), mheg.NewTextContent(eid("e11", 12), "x")),
		"descriptor": mheg.NewDescriptor(eid("e11", 13), eid("e11", 1)),
	}
	r := &Report{
		ID: "E11", Figure: "Fig 4.5", Title: "Basic MHEG class library: instantiation + coded size",
		Header: []string{"class", "valid", "asn1 bytes", "sgml bytes"},
		Pass:   true,
	}
	for name, o := range objs {
		if err := o.Validate(); err != nil {
			r.Pass = false
			r.Rows = append(r.Rows, []string{name, err.Error(), "-", "-"})
			continue
		}
		bin, err := codec.ASN1().Encode(o)
		if err != nil {
			return nil, err
		}
		txt, err := codec.SGML().Encode(o)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{name, "yes", fmt.Sprint(len(bin)), fmt.Sprint(len(txt))})
	}
	sortRows(r.Rows)
	return r, nil
}

// E12CoursewareLib reproduces Fig 4.6: the courseware class library's
// interactive, output and hyper objects, including the virtual latency
// from a click to its effect.
func E12CoursewareLib() (*Report, error) {
	r := &Report{
		ID: "E12", Figure: "Fig 4.6", Title: "Courseware class library: group composition + click latency",
		Header: []string{"object type", "MHEG objects", "asn1 bytes", "click→effect"},
		Pass:   true,
	}
	measure := func(name string, g courseware.Group, interact func(e *engine.Engine) engine.RTID, effectTarget mheg.ID) error {
		clock := sim.NewClock()
		e := engine.New(clock)
		if !effectTarget.Zero() {
			tgt := mheg.NewImageContent(effectTarget, "store/t.jpg", mheg.Size{})
			e.AddModel(tgt)
		}
		for _, o := range g.Objects {
			if err := e.AddModel(o); err != nil {
				return err
			}
		}
		if _, err := e.NewRT(g.Root, "ui"); err != nil {
			return err
		}
		data, err := codec.ASN1().Encode(g.Container(eid("e12c", 999)))
		if err != nil {
			return err
		}
		before := clock.Now()
		if interact != nil {
			interact(e)
			clock.Run()
		}
		lat := clock.Now().Sub(before)
		ok := effectTarget.Zero() || len(e.RTsOf(effectTarget)) > 0
		if !ok {
			r.Pass = false
		}
		r.Rows = append(r.Rows, []string{name, fmt.Sprint(len(g.Objects)), fmt.Sprint(len(data)), dur(lat)})
		return nil
	}

	ids := courseware.NewIDAllocator("e12", 1)
	tgt := eid("e12", 900)
	btn := courseware.Button(ids, "Play", mheg.Act(mheg.OpNew, tgt), mheg.Act(mheg.OpRun, tgt))
	if err := measure("interactive:button", btn, func(e *engine.Engine) engine.RTID {
		rt := e.RTsOf(btn.Objects[0].Base().ID)[0]
		e.Select(rt)
		return rt
	}, tgt); err != nil {
		return nil, err
	}

	ids2 := courseware.NewIDAllocator("e12m", 1)
	tgt2 := eid("e12m", 900)
	menu, err := courseware.Menu(ids2, "main",
		courseware.MenuChoice{Label: "classroom", Effect: []mheg.ElementaryAction{mheg.Act(mheg.OpNew, tgt2)}},
		courseware.MenuChoice{Label: "library", Effect: []mheg.ElementaryAction{mheg.Act(mheg.OpStop, tgt2)}})
	if err != nil {
		return nil, err
	}
	if err := measure("interactive:menu", menu, func(e *engine.Engine) engine.RTID {
		rt := e.RTsOf(menu.Objects[0].Base().ID)[0]
		e.SetSelection(rt, mheg.StringValue("classroom"))
		return rt
	}, tgt2); err != nil {
		return nil, err
	}

	ids3 := courseware.NewIDAllocator("e12e", 1)
	entry := courseware.EntryField(ids3, "student-number")
	if err := measure("interactive:entry", entry, nil, mheg.ID{}); err != nil {
		return nil, err
	}

	ids4 := courseware.NewIDAllocator("e12h", 1)
	out := courseware.OutputMedia(ids4, media.CodingWAV, "store/g.wav", mheg.Size{}, time.Second)
	hyper := courseware.Hyperobject(ids4, "Hear greeting", out)
	if err := measure("hyperobject", hyper, func(e *engine.Engine) engine.RTID {
		rt := e.RTsOf(hyper.Objects[0].Base().ID)[0]
		e.Select(rt)
		return rt
	}, mheg.ID{}); err != nil {
		return nil, err
	}

	ids5 := courseware.NewIDAllocator("e12o", 1)
	txt := courseware.OutputText(ids5, "output text")
	if err := measure("output:text", txt, nil, mheg.ID{}); err != nil {
		return nil, err
	}
	return r, nil
}

// E19RuntimeReuse reproduces the §2.2.2.2 reuse claim: presenting the
// same model object in k run-time contexts costs one content transfer
// with the model cache, k without.
func E19RuntimeReuse() (*Report, error) {
	const k = 5
	video := media.EncodeMPEG(media.VideoParams{Duration: 2 * time.Second, Seed: 11})
	run := func(disableCache bool) (*engine.Stats, error) {
		clock := sim.NewClock()
		e := engine.New(clock, engine.WithResolver(engine.ResolverFunc(func(string) ([]byte, error) {
			return video, nil
		})))
		e.DisableCache = disableCache
		c := mheg.NewVideoContent(eid("e19", 1), "store/shared.mpg", mheg.Size{}, 2*time.Second)
		if err := e.AddModel(c); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			rt, err := e.NewRT(eid("e19", 1), fmt.Sprintf("ctx%d", i))
			if err != nil {
				return nil, err
			}
			e.Run(rt)
			clock.Run()
		}
		return &e.Stats, nil
	}
	cached, err := run(false)
	if err != nil {
		return nil, err
	}
	uncached, err := run(true)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID: "E19", Figure: "§2.2.2.2", Title: fmt.Sprintf("Run-time object reuse: same model in %d contexts", k),
		Header: []string{"mode", "content fetches", "bytes moved", "cache hits"},
		Rows: [][]string{
			{"model-object reuse (MITS)", fmt.Sprint(cached.ContentFetches), bytesStr(cached.BytesFetched), fmt.Sprint(cached.CacheHits)},
			{"re-fetch per instance", fmt.Sprint(uncached.ContentFetches), bytesStr(uncached.BytesFetched), fmt.Sprint(uncached.CacheHits)},
		},
		Notes: []string{fmt.Sprintf("reuse saves %.0f%% of transfer", 100*(1-float64(cached.BytesFetched)/float64(uncached.BytesFetched)))},
		Pass:  cached.ContentFetches == 1 && uncached.ContentFetches == k,
	}
	return r, nil
}
