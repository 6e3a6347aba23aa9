package experiments

import (
	"fmt"
	"time"

	"mits/internal/atm"
	"mits/internal/baseline"
	"mits/internal/facilitator"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/navigator"
	"mits/internal/production"
	"mits/internal/sim"
	"mits/internal/transport"
)

// E7ClientServer reproduces Fig 3.5: N navigator clients against one
// database server across the ATM network — request latency and
// aggregate throughput as the client population grows.
func E7ClientServer() (*Report, error) {
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	payload, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID: "E7", Figure: "Fig 3.5", Title: "Client–server model: N navigators fetching courseware from one server",
		Header: []string{"clients", "requests", "mean latency", "p99 latency", "served"},
		Pass:   true,
	}
	const rounds = 10
	var mean1 float64
	for _, clients := range []int{1, 2, 4, 8, 16} {
		n := atm.New()
		// Courseware responses run to ~2000 cells each; give the data
		// path switch-room for a full closed-loop client population.
		n.BufferCells = 65536
		server := n.AddHost("db")
		sw := n.AddSwitch("sw")
		n.Connect(sw, server, 155e6, 500*time.Microsecond)

		store := mediastore.New()
		if _, err := store.PutDocument("atm-course", "ATM", "asn1", payload); err != nil {
			return nil, err
		}
		mux := transport.NewMux()
		transport.RegisterStore(mux, store)

		var lat sim.Series
		served := 0
		req, err := transport.EncodeGetDoc("atm-course")
		if err != nil {
			return nil, err
		}
		var sessions []*transport.ATMSession
		for i := 0; i < clients; i++ {
			host := n.AddHost(fmt.Sprintf("user%d", i))
			n.Connect(host, sw, 155e6, 500*time.Microsecond)
			sess, err := transport.OpenATMSession(n, host, server, mux, 2*time.Millisecond)
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, sess)
			// Each client issues `rounds` back-to-back requests.
			var issue func(round int)
			issue = func(round int) {
				if round >= rounds {
					return
				}
				start := n.Clock().Now()
				//mits:allow errdrop send failure surfaces as a missed served count
				sess.Go(transport.MethodGetDoc, req, func(p []byte, err error) {
					if err == nil {
						lat.AddDuration(n.Clock().Now().Sub(start))
						served++
					}
					issue(round + 1)
				})
			}
			issue(0)
		}
		n.Clock().Run()
		for _, sess := range sessions {
			sess.Close()
		}
		if served != clients*rounds {
			r.Pass = false
		}
		if clients == 1 {
			mean1 = lat.Mean()
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(clients), fmt.Sprint(clients * rounds),
			dur(time.Duration(lat.Mean())), dur(time.Duration(lat.Percentile(99))),
			fmt.Sprint(served),
		})
		// The shared 155 Mb/s server link serializes responses: with 16
		// clients the mean should grow but stay interactive (<1s).
		if clients == 16 && (lat.Mean() < mean1 || lat.Mean() > float64(time.Second)) {
			r.Pass = false
		}
	}
	return r, nil
}

// E16Baselines reproduces the §1.3 model comparison: broadcasting vs
// CD-ROM/PC vs narrowband Internet vs MITS broadband, over 500 student
// arrivals wanting a 1 MB course scenario.
func E16Baselines() (*Report, error) {
	models := []baseline.Model{
		baseline.Broadcasting{Period: 7 * 24 * time.Hour},
		baseline.CDROM{Shipping: 72 * time.Hour},
		baseline.Narrowband{Bandwidth: 28800, RTT: 200 * time.Millisecond},
		baseline.Narrowband{Bandwidth: 128000, RTT: 80 * time.Millisecond},
		baseline.Broadband{Bandwidth: 155e6, RTT: 5 * time.Millisecond},
	}
	rng := sim.NewRNG(16)
	arrivals := make([]sim.Time, 500)
	for i := range arrivals {
		arrivals[i] = sim.Time(rng.Intn(int(7 * 24 * time.Hour)))
	}
	rows := baseline.Compare(models, arrivals, 1<<20)

	r := &Report{
		ID: "E16", Figure: "§1.3", Title: "Delivery-model comparison: 500 students, 1 MB course scenario",
		Header: []string{"model", "mean access", "interactive", "interaction RTT", "update delay", "MPEG-1 support"},
	}
	var mits, worstOther baseline.Comparison
	for _, row := range rows {
		inter := "no"
		if row.Interactive {
			inter = "yes"
		}
		r.Rows = append(r.Rows, []string{
			row.Model, row.MeanAccessDelay.Round(time.Millisecond).String(), inter,
			row.InteractionRTT.String(), row.UpdateDelay.String(),
			fmt.Sprintf("%.0f%%", 100*row.MPEG1VideoSupport),
		})
		if row.Model == "mits-broadband" {
			mits = row
		} else if row.MeanAccessDelay > worstOther.MeanAccessDelay {
			worstOther = row
		}
	}
	r.Pass = mits.Interactive && mits.MPEG1VideoSupport == 1 &&
		mits.MeanAccessDelay < worstOther.MeanAccessDelay
	r.Notes = append(r.Notes,
		"shape: MITS is the only model combining instant access, interaction, instant updates and full-rate video")
	return r, nil
}

// E17Broadband reproduces the §3.1.2/§3.3 broadband claim: an MPEG-1
// stream delivered over a reserved ATM contract vs best-effort, with
// and without cross-traffic congestion.
func E17Broadband() (*Report, error) {
	video := media.EncodeMPEG(media.VideoParams{Duration: 8 * time.Second, BitRate: 1.5e6, Seed: 17})
	frames, _, err := media.ParseMPEG(video)
	if err != nil {
		return nil, err
	}

	build := func() (*atm.Network, *atm.Host, *atm.Host, *atm.Host, *atm.Host) {
		n := atm.New()
		n.BufferCells = 96
		srv := n.AddHost("server")
		cli := n.AddHost("client")
		x1 := n.AddHost("xsrc")
		x2 := n.AddHost("xdst")
		s1 := n.AddSwitch("s1")
		s2 := n.AddSwitch("s2")
		n.Connect(srv, s1, 155e6, 200*time.Microsecond)
		n.Connect(x1, s1, 155e6, 200*time.Microsecond)
		n.Connect(s1, s2, 10e6, 200*time.Microsecond)
		n.Connect(s2, cli, 155e6, 200*time.Microsecond)
		n.Connect(s2, x2, 155e6, 200*time.Microsecond)
		return n, srv, cli, x1, x2
	}
	// congest returns the flood connection so the caller can close it
	// once the clock has drained — closing earlier tears down the flood
	// routes and uncongests the trunk.
	congest := func(n *atm.Network, from, to *atm.Host) (*atm.Connection, error) {
		flood, err := n.Open(from, to, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 8000; i++ {
			if err := flood.Send(make([]byte, 4000)); err != nil {
				return nil, err
			}
		}
		return flood, nil
	}

	r := &Report{
		ID: "E17", Figure: "§3.3", Title: fmt.Sprintf("MPEG-1 stream (%d frames, 8s) over ATM: contract × congestion", len(frames)),
		Header: []string{"contract", "cross traffic", "delivered", "deadline misses", "miss rate", "mean jitter"},
	}
	type result struct{ stats *navigator.StreamStats }
	results := make(map[string]result)
	for _, td := range []struct {
		name string
		c    atm.TrafficDescriptor
	}{
		{"rt-VBR reserved", atm.VBRContract(2e6, 8e6, 200)},
		{"UBR best-effort", atm.UBRContract(8e6)},
	} {
		for _, congested := range []bool{false, true} {
			n, srv, cli, x1, x2 := build()
			var flood *atm.Connection
			if congested {
				var err error
				flood, err = congest(n, x1, x2)
				if err != nil {
					return nil, err
				}
			}
			stats, err := navigator.StreamVideo(n, srv, cli, td.c, video, 500*time.Millisecond)
			if flood != nil {
				flood.Close()
			}
			if err != nil {
				return nil, err
			}
			cross := "idle"
			if congested {
				cross = "30 Mb/s flood"
			}
			key := td.name + "/" + cross
			results[key] = result{stats}
			r.Rows = append(r.Rows, []string{
				td.name, cross,
				fmt.Sprintf("%d/%d", stats.Delivered, stats.Frames),
				fmt.Sprint(stats.DeadlineMisses),
				fmt.Sprintf("%.1f%%", 100*stats.MissRate()),
				dur(time.Duration(stats.Jitter.Mean())),
			})
		}
	}
	reserved := results["rt-VBR reserved/30 Mb/s flood"].stats
	bestEffortIdle := results["UBR best-effort/idle"].stats
	bestEffortCong := results["UBR best-effort/30 Mb/s flood"].stats
	r.Pass = reserved.MissRate() <= 0.01 &&
		bestEffortIdle.MissRate() <= 0.01 &&
		bestEffortCong.MissRate() > reserved.MissRate()
	r.Notes = append(r.Notes,
		"shape: reservation makes congestion invisible; best-effort collapses under the same load")
	return r, nil
}

// E18ContentSeparation reproduces the §3.4.2 storage decision: content
// referenced from the scenario vs embedded in it — bytes moved when a
// student fetches only the scenario vs plays the whole course.
func E18ContentSeparation() (*Report, error) {
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	store := mediastore.New()
	if _, err := (&production.Center{}).ProduceForCourse(out.Container, store); err != nil {
		return nil, err
	}

	// Referenced form: the compiled container as-is.
	refData, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}

	// Embedded form: the same container with every referenced content
	// object's data inlined.
	embedded, totalMedia, err := embedContent(out.Container, store)
	if err != nil {
		return nil, err
	}
	embData, err := codec.ASN1().Encode(embedded)
	if err != nil {
		return nil, err
	}

	// Playing the whole course with referenced content pulls the media
	// on demand: scenario + all content.
	playAll := int64(len(refData)) + totalMedia

	r := &Report{
		ID: "E18", Figure: "§3.4.2", Title: "Content separation: referenced vs embedded course storage",
		Header: []string{"operation", "referenced (MITS)", "embedded"},
		Rows: [][]string{
			{"fetch scenario only", bytesStr(int64(len(refData))), bytesStr(int64(len(embData)))},
			{"play entire course", bytesStr(playAll), bytesStr(int64(len(embData)))},
			{"update one scene's text", bytesStr(int64(len(refData))), bytesStr(int64(len(embData)))},
		},
		Notes: []string{fmt.Sprintf("scenario-only fetch is %.0f× cheaper with separated content",
			float64(len(embData))/float64(len(refData)))},
		Pass: int64(len(refData))*10 < int64(len(embData)),
	}
	return r, nil
}

func embedContent(c *mheg.Container, store *mediastore.Store) (*mheg.Container, int64, error) {
	items := make([]mheg.Object, 0, len(c.Items))
	var mediaBytes int64
	for _, item := range c.Items {
		content, ok := item.(*mheg.Content)
		if !ok || !content.Referenced() {
			items = append(items, item)
			continue
		}
		rec, err := store.GetContent(content.ContentRef)
		if err != nil {
			return nil, 0, err
		}
		cp := *content
		cp.Inline = rec.Data
		cp.ContentRef = ""
		mediaBytes += int64(len(rec.Data))
		items = append(items, &cp)
	}
	out := mheg.NewContainer(c.ID, items...)
	out.Info = c.Info
	return out, mediaBytes, nil
}

// E20Facilitation reproduces the §1.3.1 help-on-demand comparison: the
// SIDL satellite system's three telephone lines vs the MITS on-line
// facilitator pool, under the same question workload.
func E20Facilitation() (*Report, error) {
	const students = 60
	run := func(consultants int) (*facilitator.HelpDesk, error) {
		clock := sim.NewClock()
		rng := sim.NewRNG(20)
		desk, err := facilitator.NewHelpDesk(clock, consultants, func() time.Duration {
			return time.Duration(rng.Exp(float64(2 * time.Minute)))
		})
		if err != nil {
			return nil, err
		}
		arr := sim.NewRNG(21)
		at := sim.Zero
		for i := 0; i < students; i++ {
			at = at.Add(time.Duration(arr.Exp(float64(20 * time.Second))))
			clock.At(at, func(sim.Time) {
				desk.Ask(&facilitator.Ticket{Student: "s"})
			})
		}
		clock.Run()
		return desk, nil
	}
	sidl, err := run(3)
	if err != nil {
		return nil, err
	}
	mits, err := run(12)
	if err != nil {
		return nil, err
	}
	row := func(name string, d *facilitator.HelpDesk) []string {
		return []string{
			name,
			fmt.Sprint(d.Answered),
			dur(time.Duration(d.Wait.Mean())),
			dur(time.Duration(d.Wait.Percentile(99))),
			dur(time.Duration(d.Wait.Max())),
			fmt.Sprint(d.MaxQueue),
		}
	}
	r := &Report{
		ID: "E20", Figure: "§1.3.1", Title: fmt.Sprintf("Help on demand: %d questions, exp(2min) answers", students),
		Header: []string{"system", "answered", "mean wait", "p99 wait", "max wait", "max queue"},
		Rows: [][]string{
			row("SIDL phone queue (3 lines)", sidl),
			row("MITS facilitator (12 on-line)", mits),
		},
		Notes: []string{"\"only three calls can be taken at a time, others will be put into a queue\""},
		Pass: sidl.Wait.Mean() > 4*mits.Wait.Mean() &&
			sidl.Answered == students && mits.Answered == students,
	}
	return r, nil
}
