package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mits/internal/cluster"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/navigator"
	"mits/internal/transport"
)

// cluster_rw: the same cluster and mediastore layers used two ways at
// once. Behind one TCP front door a cluster.Router spreads 256 objects
// of 64 KB over 2 shards x (primary + 2 replicas). max(1, clients-1)
// readers fetch them Zipf s=1.0 with no cache; one paced publisher
// issues 100 writes a second through the same front door — 80 % a new
// version of an existing object, 20 % a new document and object — so a
// change that speeds reads by slowing writes, or the reverse, cannot
// hide. Healthy topology only.
const (
	objectCount    = 256
	objectBytes    = 64 << 10
	objectZipf     = 1.0
	shardCount     = 2
	replicasEach   = 3 // primary + 2
	writeInterval  = time.Second / 100
	nodeTimeout    = 2 * time.Second
	convergeWithin = 10 * time.Second
)

func objectRef(i int) string { return fmt.Sprintf("library/o%04d.bin", i) }

var clusterRW = workloadDef{
	name: ClusterRW,
	plan: func(seed uint64, clients int) *plan {
		p := &plan{Workload: ClusterRW, Seed: seed}
		z := newZipf(objectCount, objectZipf)
		for v := 0; v < viewers(clients); v++ {
			r := newRNG(mix(seed, "reader", v))
			ops := make([]planOp, 1<<14)
			for i := range ops {
				ops[i] = planOp{Kind: opRead, A: uint32(z.draw(r))}
			}
			p.Actors = append(p.Actors, ops)
		}
		// The publisher rewrites the objects the readers favour, so
		// staleness has a chance to show. B=1 marks a new ref.
		r := newRNG(mix(seed, "publisher", 0))
		ops := make([]planOp, 1<<12)
		for i := range ops {
			ops[i] = planOp{Kind: opWrite, A: uint32(z.draw(r))}
			if r.intn(100) < 20 {
				ops[i].B = 1
			}
		}
		p.Actors = append(p.Actors, ops)
		return p
	},
	build:   buildCluster,
	metrics: clusterMetrics,
}

// published is the publisher's log: for every object, the digest of
// each version handed to the cluster (index = version-1), and the last
// version the cluster acknowledged. Readers check what they get against
// it: any logged version is a correct read, one older than the
// acknowledged version at the time the read was issued is a stale one.
type published struct {
	mu       sync.RWMutex
	versions [][]uint32
	acked    []atomic.Uint32
}

func (p *published) log(obj int, crc uint32) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.versions[obj] = append(p.versions[obj], crc)
	return uint32(len(p.versions[obj]))
}

// nextVersion is the version the next log call for obj will be given.
func (p *published) nextVersion(obj int) uint32 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return uint32(len(p.versions[obj])) + 1
}

func (p *published) crcOf(obj int, version uint32) (uint32, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if version == 0 || int(version) > len(p.versions[obj]) {
		return 0, false
	}
	return p.versions[obj][version-1], true
}

// startNode starts one store node as `mitsd -shard` runs it: a
// mediastore behind a mux on its own TCP server. (cluster.StartStoreNode
// is the same plus a fault injector, but keeps its handler to itself;
// building the node from the same public pieces leaves the seam open for
// the tracer.)
func startNode(name string, tr *tracer) (*transport.TCPServer, string, error) {
	mux := transport.NewMux()
	transport.RegisterStore(mux, mediastore.New())
	return serve(tr.handler(spanStore, name, mux))
}

func buildCluster(seed uint64, clients int, tr *tracer) (_ *site, err error) {
	var closers []func() error
	closeAll := func() error {
		var errs []error
		for i := len(closers) - 1; i >= 0; i-- {
			errs = append(errs, closers[i]())
		}
		return errors.Join(errs...)
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, closeAll())
		}
	}()

	var cfg cluster.Config
	cfg.Seed = seed
	for sh := 0; sh < shardCount; sh++ {
		var sc cluster.ShardConfig
		for r := 0; r < replicasEach; r++ {
			name := fmt.Sprintf("shard%d/replica%d", sh, r)
			if r == 0 {
				name = fmt.Sprintf("shard%d/primary", sh)
			}
			srv, addr, err := startNode(name, tr)
			if err != nil {
				return nil, err
			}
			closers = append(closers, srv.Close)
			sc.Replicas = append(sc.Replicas, cluster.ReplicaConfig{
				Name: name, Dial: tr.dialer(name, cluster.TCPDialer(addr, nodeTimeout)),
			})
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	router, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	closers = append(closers, router.Close)
	front, addr, err := serve(tr.handler(spanServer, "router", router))
	if err != nil {
		return nil, err
	}
	closers = append(closers, front.Close)
	pool, err := transport.DialTCPPool(addr, clients)
	if err != nil {
		return nil, fmt.Errorf("bench: dial front door: %w", err)
	}
	closers = append(closers, pool.Close)

	// Stock through the front door, so the objects shard and replicate
	// like everything else, and wait for the replicas to catch up.
	log := &published{versions: make([][]uint32, objectCount), acked: make([]atomic.Uint32, objectCount)}
	refs := make([]string, objectCount)
	db := transport.DBClient{C: pool}
	for i := range refs {
		refs[i] = objectRef(i)
		data := makeContent(seed, refs[i], 1, objectBytes)
		log.log(i, digest(data))
		if err := db.PutContent(refs[i], string(media.CodingASCII), data); err != nil {
			return nil, fmt.Errorf("bench: stock %s: %w", refs[i], err)
		}
		log.acked[i].Store(1)
	}
	if !router.WaitConverged(convergeWithin) {
		return nil, fmt.Errorf("bench: replicas did not converge within %v of stocking", convergeWithin)
	}

	s := &site{close: closeAll}
	for v := 0; v < viewers(clients); v++ {
		a, c := newActor(pool, tr)
		nav := navigator.New(navigator.Options{DB: c, School: c})
		s.actors = append(s.actors, a)
		s.run = append(s.run, func(a *actor, ops []planOp, stop <-chan struct{}) {
			loop(stop, func() {
				obj := int(a.next(ops).A)
				if a.read(nav, log, obj, refs[obj]) == nil {
					a.rec.credit(1)
					a.rec.shard[router.ShardFor(refs[obj])]++
				}
			})
		})
	}
	a, c := newActor(pool, tr)
	pub := &publisher{db: transport.DBClient{C: c}, log: log, refs: refs, seed: seed}
	s.actors = append(s.actors, a)
	s.run = append(s.run, func(a *actor, ops []planOp, stop <-chan struct{}) {
		// The bytes of each write are made before the wait for its due
		// time, so the latency taken from then is the cluster's alone.
		w := pub.prepare(a.next(ops))
		a.pace(writeInterval, stop, func(due time.Time) {
			if a.do(opWrite, w.ref, due, w.issue) == nil {
				a.rec.credit(1)
			}
			w = pub.prepare(a.next(ops))
		})
		// How long the replicas take to catch up with the window's
		// last write; a router that never does reads as the full wait.
		start := time.Now()
		router.WaitConverged(convergeWithin)
		a.rec.observe(obsConverge, time.Since(start))
	})
	return s, nil
}

func clusterMetrics(w *window, into map[string]float64) {
	into["ops_per_s"] = w.rate()
	into["read_us_p50"] = w.pct(50, opRead)
	into["write_us_p50"] = w.pct(50, opWrite)
	into["write_us_p95"] = w.pct(95, opWrite)
	reads := w.total(func(r *recorder) int64 { return r.reads })
	into["cluster.stale_read_share"] = ratio(float64(w.total(func(r *recorder) int64 { return r.stale })), float64(reads))
	var most int64
	for sh := 0; sh < shardCount; sh++ {
		if n := w.total(func(r *recorder) int64 { return r.shard[sh] }); n > most {
			most = n
		}
	}
	into["cluster.shard_read_skew"] = ratio(float64(most), float64(reads))
	into["cluster.converge_ms"] = w.pct(50, obsConverge) / 1e3
	w.common(into)
}

// read fetches one object and checks it against the publisher's log.
func (a *actor) read(nav *navigator.Navigator, log *published, obj int, ref string) error {
	acked := log.acked[obj].Load()
	return a.do(opRead, ref, noDue, func() error {
		rec, err := nav.ReadLibrary(ref)
		if err != nil {
			return err
		}
		version := contentVersion(rec.Data)
		want, ok := log.crcOf(obj, version)
		if got := digest(rec.Data); !ok || got != want || len(rec.Data) != objectBytes {
			return a.mismatch("%s: %d bytes claiming version %d with crc %08x were never published", ref, len(rec.Data), version, got)
		}
		a.rec.reads++
		if version < acked {
			a.rec.stale++
		}
		a.rec.bytes += objectBytes
		return nil
	})
}

// publisher is the paced writer.
type publisher struct {
	db   transport.DBClient
	log  *published
	refs []string
	seed uint64
	next int // new refs minted so far
}

// write is one prepared publication: the ref it touches and the call
// that issues it.
type write struct {
	ref   string
	issue func() error
}

// prepare makes the bytes of the next publication: a new version of an
// existing object or, when the plan says so, a new document with a new
// object beside it.
func (p *publisher) prepare(op planOp) write {
	if op.B == 1 {
		p.next++
		name := fmt.Sprintf("pub-%05d", p.next)
		ref := "library/" + name + ".bin"
		data := makeContent(p.seed, ref, 1, objectBytes)
		return write{ref: ref, issue: func() error {
			if _, err := p.db.PutDocument(name, "Published "+name, "raw-html", data[:1024], "published/new"); err != nil {
				return err
			}
			return p.db.PutContent(ref, string(media.CodingASCII), data)
		}}
	}
	obj := int(op.A)
	ref := p.refs[obj]
	version := p.log.nextVersion(obj) // the publisher is the log's only writer
	data := makeContent(p.seed, ref, version, objectBytes)
	p.log.log(obj, digest(data))
	return write{ref: ref, issue: func() error {
		if err := p.db.PutContent(ref, string(media.CodingASCII), data); err != nil {
			return err
		}
		p.log.acked[obj].Store(version)
		return nil
	}}
}
