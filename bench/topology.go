package bench

import (
	"errors"
	"fmt"
	"time"

	"mits"
	"mits/internal/cache"
	"mits/internal/media"
	"mits/internal/navigator"
	"mits/internal/transport"
)

// workloadDef is one workload: how its inputs are drawn, how its
// topology is assembled, and how a window's tallies become its named
// metrics. Everything is assembled through the constructors a
// deployment uses; the tracer, when non-nil, only wraps the seams
// between them.
type workloadDef struct {
	name    string
	plan    func(seed uint64, clients int) *plan
	build   func(seed uint64, clients int, tr *tracer) (*site, error)
	metrics func(w *window, into map[string]float64)
}

var workloadDefs = map[string]*workloadDef{
	StreamCold: &streamCold,
	BrowseHot:  &browseHot,
	SessionMix: &sessionMix,
	ClusterRW:  &clusterRW,
}

// singleStore is the one-TCP-store topology: a mits.System (database,
// school and the rest behind one mux) served on a loopback TCP port,
// and one client pool of `clients` stripes that every actor shares.
type singleStore struct {
	srv  *transport.TCPServer
	pool *transport.ClientPool
	tr   *tracer
}

// serve puts h on a loopback TCP port.
func serve(h transport.Handler) (*transport.TCPServer, string, error) {
	srv := transport.NewTCPServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("bench: listen: %w", err)
	}
	return srv, addr, nil
}

// open serves sys (already stocked) and dials the shared pool. This is
// System.ServeTCP spelled out, so that the traced pass can slip its
// handler wrapper between the mux and the server.
func openStore(sys *mits.System, clients int, tr *tracer) (*singleStore, error) {
	mux, ok := sys.Handler().(serverHandler)
	if !ok {
		return nil, errors.New("bench: system handler is not trace-aware")
	}
	srv, addr, err := serve(tr.handler(spanServer, "store", mux))
	if err != nil {
		return nil, err
	}
	pool, err := transport.DialTCPPool(addr, clients)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("bench: dial pool: %w", err), srv.Close())
	}
	return &singleStore{srv: srv, pool: pool, tr: tr}, nil
}

// newActor returns a load actor and the client its navigator should
// use: the shared pool itself, or in the traced pass the actor's own
// timing wrapper around it.
func newActor(pool transport.Client, tr *tracer) (*actor, transport.Client) {
	if tr == nil {
		return &actor{}, pool
	}
	tc := &traceClient{next: pool, tr: tr, kind: spanClient}
	return &actor{tr: tr, tc: tc, fetched: map[string]bool{}}, tc
}

// navigator opens one student's navigator over the shared pool, with
// the deployment's 64 MB content cache or with none.
func (s *singleStore) navigator(cached bool) (*actor, *navigator.Navigator) {
	a, c := newActor(s.pool, s.tr)
	opts := navigator.Options{DB: c, School: c}
	if cached {
		opts.ContentCache = cache.New("content:bench", mits.DefaultContentCacheBytes)
	}
	return a, navigator.New(opts)
}

func (s *singleStore) close() error {
	return errors.Join(s.pool.Close(), s.srv.Close())
}

// clip is a published MPEG object with what a player needs to verify
// and score a stream of it: the digest, and each frame's last byte
// offset and presentation time as media.ParseMPEG reports them.
type clip struct {
	ref      string
	size     int
	crc      uint32
	frameEnd []int
	pts      []time.Duration
}

func newClip(ref string, data []byte) (*clip, error) {
	frames, _, err := media.ParseMPEG(data)
	if err != nil {
		return nil, fmt.Errorf("bench: clip %s: %w", ref, err)
	}
	c := &clip{ref: ref, size: len(data), crc: digest(data),
		frameEnd: make([]int, len(frames)), pts: make([]time.Duration, len(frames))}
	end := len(data)
	for i := len(frames) - 1; i >= 0; i-- {
		c.frameEnd[i] = end
		c.pts[i] = frames[i].PTS
		end -= frames[i].Size
	}
	return c, nil
}

// playoutBuffer is the start-up buffer of the nominal 1.5 Mb/s playout:
// frame i must be complete by firstChunk + playoutBuffer + PTS(i).
const playoutBuffer = 200 * time.Millisecond

// player is the sink side of one stream: it digests the bytes, notes
// when each chunk arrived, and scores every frame against its playout
// deadline as the frame's last byte comes in.
type player struct {
	a      *actor
	clip   *clip
	start  time.Time
	first  time.Time
	last   time.Time
	got    int
	crc    uint32
	frame  int
	missed int64
}

func (p *player) begin(a *actor, c *clip) {
	*p = player{a: a, clip: c, start: time.Now()}
}

func (p *player) sink(chunk []byte) error {
	now := time.Now()
	if p.got == 0 {
		p.first = now
		p.a.rec.observe(obsFirstChunk, now.Sub(p.start))
	} else {
		p.a.rec.observe(obsChunkGap, now.Sub(p.last))
	}
	p.last = now
	p.crc = crcUpdate(p.crc, chunk)
	p.got += len(chunk)
	for p.frame < len(p.clip.frameEnd) && p.clip.frameEnd[p.frame] <= p.got {
		if now.After(p.first.Add(playoutBuffer + p.clip.pts[p.frame])) {
			p.missed++
		}
		p.frame++
	}
	return nil
}

// finish settles a stream: the bytes must be exactly the published
// ones, and the frames of a stream that failed all count as missed.
func (p *player) finish(err error) error {
	frames := int64(len(p.clip.frameEnd))
	p.a.rec.frames += frames
	switch {
	case err != nil:
		p.a.rec.missed += frames
		return err
	case p.got != p.clip.size || p.crc != p.clip.crc:
		p.a.rec.missed += frames
		return p.a.mismatch("stream %s: %d bytes crc %08x, published %d bytes crc %08x",
			p.clip.ref, p.got, p.crc, p.clip.size, p.clip.crc)
	}
	p.a.rec.missed += p.missed
	p.a.rec.bytes += int64(p.got)
	return nil
}

// stream plays clip c through nav as one op of the given kind.
func (a *actor) stream(nav *navigator.Navigator, c *clip, p *player) error {
	return a.do(opStream, c.ref, noDue, func() error {
		p.begin(a, c)
		_, err := nav.ReadLibraryStream(c.ref, p.sink)
		return p.finish(err)
	})
}

// chunkGaps reports the time between consecutive sink callbacks.
func chunkGaps(w *window, into map[string]float64) {
	if p50 := w.pct(50, obsChunkGap); p50 > 0 {
		into["transport.chunk_gap_us_p50"] = p50
		into["transport.chunk_gap_us_p99"] = w.pct(99, obsChunkGap)
	}
}
