package bench

import (
	"fmt"
	"time"

	"mits"
	"mits/internal/media"
	"mits/internal/navigator"
)

// stream_cold: every byte crosses the wire and nothing is retained.
// max(1, clients-1) viewers stream 20-second MPEG-1 clips back to back
// through navigators without a content cache; beside them one paced
// prober reads a 1 KB holding 200 times a second on the same pool — the
// student who keeps clicking while a clip streams.
const (
	clipCount     = 16
	clipDuration  = 20 * time.Second
	probeRef      = "library/probe.txt"
	probeBytes    = 1024
	probeInterval = time.Second / 200
)

func viewers(clients int) int {
	if clients < 2 {
		return 1
	}
	return clients - 1
}

var streamCold = workloadDef{
	name: StreamCold,
	plan: func(seed uint64, clients int) *plan {
		p := &plan{Workload: StreamCold, Seed: seed}
		for v := 0; v < viewers(clients); v++ {
			r := newRNG(mix(seed, "viewer", v))
			ops := make([]planOp, 1<<10)
			for i := range ops {
				ops[i] = planOp{Kind: opStream, A: uint32(r.intn(clipCount))}
			}
			p.Actors = append(p.Actors, ops)
		}
		p.Actors = append(p.Actors, []planOp{{Kind: opProbe}})
		return p
	},
	build: func(seed uint64, clients int, tr *tracer) (*site, error) {
		sys := mits.NewSystem("mitsbench")
		clips := make([]*clip, clipCount)
		for i := range clips {
			ref := fmt.Sprintf("library/clip%02d.mpg", i)
			data := media.EncodeMPEG(media.VideoParams{Duration: clipDuration, Seed: contentSeed(seed, ref, 1)})
			if err := sys.Store.PutContent(ref, string(media.CodingMPEG), data); err != nil {
				return nil, err
			}
			c, err := newClip(ref, data)
			if err != nil {
				return nil, err
			}
			clips[i] = c
		}
		probe := makeContent(seed, probeRef, 1, probeBytes)
		if err := sys.Store.PutContent(probeRef, string(media.CodingASCII), probe); err != nil {
			return nil, err
		}
		probeCRC := digest(probe)

		st, err := openStore(sys, clients, tr)
		if err != nil {
			return nil, err
		}
		s := &site{close: st.close}
		for v := 0; v < viewers(clients); v++ {
			a, nav := st.navigator(false)
			s.actors = append(s.actors, a)
			s.run = append(s.run, func(a *actor, ops []planOp, stop <-chan struct{}) {
				var p player
				loop(stop, func() {
					c := clips[a.next(ops).A]
					if a.stream(nav, c, &p) == nil {
						a.rec.credit(float64(c.size) / 1e6)
					}
				})
			})
		}
		a, nav := st.navigator(false)
		s.actors = append(s.actors, a)
		s.run = append(s.run, func(a *actor, _ []planOp, stop <-chan struct{}) {
			a.pace(probeInterval, stop, func(due time.Time) {
				_ = a.probe(nav, due, probeCRC)
			})
		})
		return s, nil
	},
	metrics: func(w *window, into map[string]float64) {
		into["stream_mbps"] = w.rate()
		into["ttff_us_p50"] = w.pct(50, obsFirstChunk)
		into["interactive_us_p50"] = w.pct(50, opProbe)
		into["interactive_us_p95"] = w.pct(95, opProbe)
		frames := w.total(func(r *recorder) int64 { return r.frames })
		missed := w.total(func(r *recorder) int64 { return r.missed })
		into["deadline_miss_rate"] = ratio(float64(missed), float64(frames))
		chunkGaps(w, into)
		w.common(into)
	},
}

// probe is the interactive 1 KB read, timed from when it was due.
func (a *actor) probe(nav *navigator.Navigator, due time.Time, want uint32) error {
	return a.do(opProbe, probeRef, due, func() error {
		rec, err := nav.ReadLibrary(probeRef)
		if err != nil {
			return err
		}
		if got := digest(rec.Data); got != want {
			return a.mismatch("probe crc %08x, published %08x", got, want)
		}
		return nil
	})
}
