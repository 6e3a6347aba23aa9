// Command mitsd is the MITS server daemon: it hosts the courseware
// database, the school administration service and (optionally) a
// persisted database image, serving navigator clients over TCP — the
// server half of the client–server model of Fig 3.5.
//
//	mitsd -addr 127.0.0.1:7121                  # fresh school with the sample courses
//	mitsd -addr :7121 -db /var/mits/school.db   # load/save a database image
//	mitsd -stats 127.0.0.1:7122                 # observability endpoint
//	mitsd -collect 127.0.0.1:7123 -stats 127.0.0.1:7122   # trace collector
//	mitsd -export 127.0.0.1:7123                # ship spans to a collector
//
// Restarted on its own image, mitsd serves the courses, students and
// library it saved; only the sample exercise set and announcement,
// which are not persisted, are stocked again.
//
// Cluster deployment (DESIGN §12) splits the daemon into two roles:
//
//	mitsd -shard -addr 127.0.0.1:7201           # one store node (primary or replica)
//	mitsd -cluster '127.0.0.1:7201,127.0.0.1:7202;127.0.0.1:7203,127.0.0.1:7204' -addr :7121
//
// A -shard node serves only the courseware database. The -cluster
// front door routes that wire protocol across the shards listed in
// the topology spec (shards ';'-separated, each shard's addresses
// ','-separated with the primary first), adds the school,
// facilitation and exercise services locally, and publishes the
// sample courses through the router so they shard and replicate like
// any other courseware. Navigators dial the front door exactly as
// they would a single mitsd. The front door keeps its school in memory
// and refuses -db; each -shard node keeps its own image.
//
// With -stats, GET /metrics returns the Prometheus exposition
// (counters, gauges, latency histograms, opened by a "# mits
// exposition site=mitsd" comment), /debug/pprof/* the runtime profiles
// and /healthz a liveness 200. Spans leave the process: with -collect
// the daemon also runs a trace collector on the given RPC address and
// mounts its /traces, /trace and /slowest views on the stats endpoint;
// with -export it ships its own finished spans to a collector
// elsewhere (typically another mitsd run with -collect). One box sees
// its own spans by collecting them itself:
//
//	mitsd -collect 127.0.0.1:7123 -export 127.0.0.1:7123 -stats 127.0.0.1:7122
//
// then GET /traces on 127.0.0.1:7122 lists the slow and errored traces
// the collector kept, and /trace?id=<16 hex digits> draws one.
package main

import (
	"errors"
	"flag"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mits"
	"mits/internal/cluster"
	"mits/internal/exercise"
	"mits/internal/facilitator"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/obs/collect"
	"mits/internal/production"
	"mits/internal/school"
	"mits/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7121", "TCP listen address")
	statsAddr := flag.String("stats", "", "HTTP stats listen address (empty disables the endpoint)")
	dbPath := flag.String("db", "", "database image to load at start and save on shutdown")
	name := flag.String("school", "MIRL TeleSchool", "school name")
	noSamples := flag.Bool("no-samples", false, "do not publish the sample courses")
	exportAddr := flag.String("export", "", "ship finished spans to the trace collector at this address")
	collectAddr := flag.String("collect", "", "run a trace collector on this RPC address (views on -stats)")
	shardMode := flag.Bool("shard", false, "serve a bare store shard (courseware database only; no school, no samples)")
	clusterSpec := flag.String("cluster", "", "serve as cluster front door over this shard topology (primary,replica,...;primary,...)")
	verbose := flag.Bool("v", false, "log at debug level")
	flag.Parse()

	obs.SetSite("mitsd")
	obs.SetLogLevel(slog.LevelInfo)
	if *verbose {
		obs.SetLogLevel(slog.LevelDebug)
	}
	logger := obs.Logger("mitsd")
	if *shardMode && *clusterSpec != "" {
		fatal(logger, "flags", errFlagConflict)
	}
	if *clusterSpec != "" && *dbPath != "" {
		fatal(logger, "flags", errClusterImage)
	}

	// The serving surface differs per role; observability and shutdown
	// are shared below.
	var (
		srv      *transport.TCPServer
		bound    string
		shutdown func() // role-specific teardown before the listener closes
		err      error
	)
	switch {
	case *shardMode:
		srv, bound, shutdown, err = runShard(logger, *addr, *dbPath)
	case *clusterSpec != "":
		srv, bound, shutdown, err = runCluster(logger, *addr, *clusterSpec, *name, *noSamples)
	default:
		srv, bound, shutdown, err = runSingle(logger, *addr, *dbPath, *name, *noSamples)
	}
	if err != nil {
		fatal(logger, "start", err)
	}

	// Trace collector: the flight recorder this site offers the rest of
	// the deployment. Peers point -export here; the views ride -stats.
	var col *collect.Collector
	var colSrv *transport.TCPServer
	var mountViews func(*http.ServeMux)
	if *collectAddr != "" {
		col = collect.NewCollector()
		mountViews = col.Mount
		colMux := transport.NewMux()
		col.Register(colMux)
		colSrv = transport.NewTCPServer(colMux)
		colBound, err := colSrv.Listen(*collectAddr)
		if err != nil {
			fatal(logger, "collector listen", err)
		}
		col.Start()
		logger.Info("trace collector up", "addr", colBound)
	}

	var stats *obs.StatsServer
	if *statsAddr != "" {
		stats, err = obs.ServeStats(*statsAddr, mountViews)
		if err != nil {
			fatal(logger, "stats listen", err)
		}
		logger.Info("stats endpoint up", "addr", stats.Addr)
	}

	// Span exporter: ship this daemon's finished spans to a collector
	// elsewhere. Never blocks the serving path; drops are counted in
	// obs_export_dropped_total.
	var exporter *collect.Exporter
	if *exportAddr != "" {
		exporter = collect.StartExporter(obs.Default, collect.Dial(*exportAddr))
		logger.Info("span export up", "collector", *exportAddr)
	}
	logger.Info("serving", "addr", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	if exporter != nil {
		// Flush the last spans out before the transports go away.
		if err := exporter.Close(); err != nil {
			logger.Warn("close span exporter", "err", err)
		}
	}
	if stats != nil {
		if err := stats.Close(); err != nil {
			logger.Warn("close stats endpoint", "err", err)
		}
	}
	if colSrv != nil {
		if err := colSrv.Close(); err != nil {
			logger.Warn("close collector listener", "err", err)
		}
		if err := col.Close(); err != nil {
			logger.Warn("close collector", "err", err)
		}
	}
	if err := srv.Close(); err != nil {
		logger.Warn("close listener", "err", err)
	}
	if shutdown != nil {
		shutdown()
	}
}

// runSingle is the classic single-site daemon: one school, one store,
// everything co-located.
func runSingle(logger *slog.Logger, addr, dbPath, name string, noSamples bool) (*transport.TCPServer, string, func(), error) {
	var store *mediastore.Store
	var sch *school.School
	schoolPath := ""
	if dbPath != "" {
		schoolPath = dbPath + ".school"
		if loaded, err := mediastore.Load(dbPath); err == nil {
			store = loaded
			logger.Info("loaded database image", "path", dbPath)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, "", nil, err
		}
		if loaded, err := school.Load(schoolPath); err == nil {
			sch = loaded
			logger.Info("loaded school image", "path", schoolPath)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, "", nil, err
		}
	}
	// A school loaded from an image already lists the sample courses
	// and the store holds their documents and the library. The
	// exercise book and the facilitator are not persisted, so they are
	// stocked at every start.
	fresh := sch == nil
	sys := mits.NewSystemFrom(name, store, sch)

	if !noSamples {
		if fresh {
			if err := publishSamples(sys.Publisher()); err != nil {
				return nil, "", nil, err
			}
			if err := sys.StockLibrary(); err != nil {
				return nil, "", nil, err
			}
		}
		if err := publishExercises(sys.Exercises, sys.Facilitator); err != nil {
			return nil, "", nil, err
		}
	}
	srv, bound, err := sys.ServeTCP(addr)
	if err != nil {
		return nil, "", nil, err
	}
	docs, contents := sys.Store.Sizes()
	logger.Info("single-site school", "school", name, "documents", docs, "content_objects", contents)
	shutdown := func() {
		if dbPath == "" {
			return
		}
		if err := sys.Store.Save(dbPath); err != nil {
			logger.Error("save database image", "path", dbPath, "err", err)
		} else {
			logger.Info("saved database image", "path", dbPath)
		}
		if err := sys.School.Save(schoolPath); err != nil {
			logger.Error("save school image", "path", schoolPath, "err", err)
		} else {
			logger.Info("saved school image", "path", schoolPath)
		}
	}
	return srv, bound, shutdown, nil
}

// runShard serves one bare store node: the courseware database wire
// protocol and nothing else. Shard nodes hold whatever the cluster
// front door routes to them — no samples, no school.
func runShard(logger *slog.Logger, addr, dbPath string) (*transport.TCPServer, string, func(), error) {
	store := mediastore.New()
	if dbPath != "" {
		if loaded, err := mediastore.Load(dbPath); err == nil {
			store = loaded
			logger.Info("loaded shard image", "path", dbPath)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, "", nil, err
		}
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	srv := transport.NewTCPServer(mux)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", nil, err
	}
	docs, contents := store.Sizes()
	logger.Info("store shard node", "documents", docs, "content_objects", contents)
	shutdown := func() {
		if dbPath == "" {
			return
		}
		if err := store.Save(dbPath); err != nil {
			logger.Error("save shard image", "path", dbPath, "err", err)
		} else {
			logger.Info("saved shard image", "path", dbPath)
		}
	}
	return srv, bound, shutdown, nil
}

// runCluster serves the cluster front door: the router fans the
// database protocol out across the shard topology, while school,
// facilitation and exercises run locally beside it. Samples publish
// through the router, so the demo courseware is itself sharded and
// replicated.
func runCluster(logger *slog.Logger, addr, spec, name string, noSamples bool) (*transport.TCPServer, string, func(), error) {
	router, err := cluster.NewTCPRouter(spec)
	if err != nil {
		return nil, "", nil, err
	}
	sch := school.New(name)
	fac := facilitator.New()
	exb := exercise.NewBook()
	mux := transport.NewMux()
	router.Register(mux)
	school.RegisterService(mux, sch)
	facilitator.RegisterService(mux, fac)
	exercise.RegisterService(mux, exb)

	if !noSamples {
		pub := &mits.Publisher{
			DB:         transport.DBClient{C: transport.Loopback{H: router}},
			Production: &production.Center{},
			School:     sch,
		}
		if err := publishSamples(pub); err != nil {
			router.Close()
			return nil, "", nil, err
		}
		if err := pub.StockLibrary(); err != nil {
			router.Close()
			return nil, "", nil, err
		}
		if err := publishExercises(exb, fac); err != nil {
			router.Close()
			return nil, "", nil, err
		}
		if !router.WaitConverged(10 * time.Second) {
			logger.Warn("sample courseware still replicating", "backlog", router.Backlog())
		}
	}
	srv := transport.NewTCPServer(mux)
	bound, err := srv.Listen(addr)
	if err != nil {
		router.Close()
		return nil, "", nil, err
	}
	logger.Info("cluster front door", "school", name, "shards", router.Shards())
	shutdown := func() {
		// Give in-flight replication a moment to land before the replica
		// clients close under it.
		if !router.WaitConverged(2 * time.Second) {
			logger.Warn("replication backlog abandoned at shutdown", "backlog", router.Backlog())
		}
		if err := router.Close(); err != nil {
			logger.Warn("close cluster router", "err", err)
		}
	}
	return srv, bound, shutdown, nil
}

// fatal logs a start-up failure and exits non-zero.
func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

var (
	errFlagConflict = errors.New("-shard and -cluster are mutually exclusive roles")
	errClusterImage = errors.New("-cluster keeps no database image: give -db to each -shard node instead")
)

func publishSamples(pub *mits.Publisher) error {
	atmDoc, err := mits.SampleATMCourse()
	if err != nil {
		return err
	}
	if _, err := pub.PublishInteractive(atmDoc, mits.CourseInfo{
		Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
		DocName: "atm-course", Sessions: 4, Keywords: []string{"network/atm", "broadband"},
	}); err != nil {
		return err
	}
	hyperDoc, err := mits.SampleHyperCourse()
	if err != nil {
		return err
	}
	if _, err := pub.PublishHypermedia(hyperDoc, mits.CourseInfo{
		Code: "ELG5374", Name: "Networking Basics", Program: "Engineering",
		DocName: "net-course", Sessions: 2, Keywords: []string{"network/basics"},
		Encoding: "sgml",
	}); err != nil {
		return err
	}
	return nil
}

// publishExercises adds a sample problem set and announces it.
func publishExercises(exb *exercise.Book, fac *facilitator.Facilitator) error {
	if err := exb.AddSet(&exercise.Set{
		ID: "atm-ex1", Course: "ELG5121", Title: "Cells and contracts",
		Problems: []exercise.Problem{
			{ID: "p1", Kind: exercise.MultipleChoice, Prompt: "How long is an ATM cell?",
				Options: []string{"48 bytes", "53 bytes", "64 bytes"}, Answer: "1",
				Points: 2, Feedback: "48 bytes is only the payload."},
			{ID: "p2", Kind: exercise.Numeric, Prompt: "Payload bytes per cell?", Answer: "48", Points: 1},
			{ID: "p3", Kind: exercise.FreeText, Prompt: "Name the cell-rate policing algorithm.",
				Answer: "GCRA", Points: 3, Feedback: "Generic Cell Rate Algorithm."},
		},
	}); err != nil {
		return err
	}
	fac.OpenRoom("atm-questions")
	_, err := fac.Publish("announcements", "admin",
		"Exercise atm-ex1 published", "try 'exercises ELG5121' in the navigator")
	return err
}
