package collect

import (
	"sort"
	"sync"
	"testing"
	"time"

	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// BenchmarkE30ExportOverhead prices the trace pipeline on the E29
// workload: 8 pipelined callers fetching content from a store paying a
// modeled 1 ms service latency, with span export disabled, shipping to
// a discard sink, and shipping to a live collector over TCP. The
// acceptance bound is <5% throughput overhead for the *exporter* — the
// node-side cost of leaving the flight recorder on in production,
// where the collector runs on the ops site, not on the node. The
// co-located full-pipeline fraction (exporter plus collector decode
// and assembly contending for the same CPUs) is measured and reported
// alongside; on a single-CPU host it is materially higher because
// every collector cycle comes straight out of delivery throughput.
func BenchmarkE30ExportOverhead(b *testing.B) {
	const storeServiceDelay = time.Millisecond
	const callers = 8
	const ref = "bench/clip.mpg"
	store := mediastore.New()
	if err := store.PutContent(ref, "mpeg", make([]byte, 16<<10)); err != nil {
		b.Fatal(err)
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	slowStore := transport.HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		time.Sleep(storeServiceDelay)
		return mux.Handle(method, payload)
	})
	srv := transport.NewTCPServer(slowStore)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.DialTCP(bound)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	db := transport.DBClient{C: cli}

	runN := func(b *testing.B, n int) float64 {
		per := (n + callers - 1) / callers
		errc := make(chan error, callers)
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := db.GetContent(ref); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		return float64(per*callers) / elapsed.Seconds()
	}

	// CompleteAfter is short so the collector's finalize work (sort,
	// tree assembly, critical path) lands inside the collector phase
	// that produced it; at the production default of 1s it lands in the
	// NEXT round's baseline phase instead, deflating the off throughput
	// and corrupting both overhead fractions. The explicit Sweep(0)
	// between phases below drains the remainder outside any timed
	// window.
	col := NewCollector(RetainPolicy{SampleRate: 0, CompleteAfter: 50 * time.Millisecond})
	defer col.Close()
	col.Start(50 * time.Millisecond)
	colMux := transport.NewMux()
	col.Register(colMux)
	colSrv := transport.NewTCPServer(colMux)
	colAddr, err := colSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer colSrv.Close()

	// Discard sink: accepts obs.Export frames and drops the payload.
	// Spans still pay their full node-side freight (capture, enqueue,
	// encode, TCP ship) but none of the collector's decode/assembly —
	// the production topology, where the collector is another site.
	discardMux := transport.NewMux()
	discardMux.Register(transport.MethodObsExport, transport.HandlerFunc(func(string, []byte) ([]byte, error) {
		return nil, nil
	}))
	discardSrv := transport.NewTCPServer(discardMux)
	discardAddr, err := discardSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer discardSrv.Close()

	// Two long-lived exporters, as production runs them — one wired to
	// the discard sink, one to the live collector — toggled per phase
	// via Attach/Detach. Building a fresh exporter per phase (queue
	// allocation, TCP dial, cold paths) charges start-up costs to the
	// overhead being measured; a real node pays them once per process.
	discardExp := StartExporter(obs.Default, Dial(discardAddr), ExporterOptions{Site: "bench"})
	discardExp.Detach()
	defer discardExp.Close()
	colExp := StartExporter(obs.Default, Dial(colAddr), ExporterOptions{Site: "bench"})
	colExp.Detach()
	defer colExp.Close()

	withExporter := func(exporter *Exporter, n int) float64 {
		exporter.Attach()
		thr := runN(b, n)
		exporter.Detach()
		exporter.Flush()
		return thr
	}
	frac := func(off, on float64) float64 {
		if off > 0 && on < off {
			return (off - on) / off
		}
		return 0
	}

	// Interleaved rounds (off → discard → collector), scored by the
	// median of per-round overheads. A single off phase followed by a
	// single on phase confounds the export cost with ambient drift — on
	// a small shared host, two identical phases minutes apart can differ
	// by more than the quantity under test. Adjacent phases cancel the
	// drift; the median discards the odd round a neighbor stomped on.
	const rounds = 5
	iters := b.N / rounds
	if iters < callers {
		iters = callers
	}
	var offs, ons, expOv, pipeOv []float64
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		off := runN(b, iters)
		discard := withExporter(discardExp, iters)
		on := withExporter(colExp, iters)
		// Finalize everything still pending before the next round's
		// baseline phase starts, so no collector work leaks into it.
		col.Sweep(0)
		offs, ons = append(offs, off), append(ons, on)
		expOv = append(expOv, frac(off, discard))
		pipeOv = append(pipeOv, frac(off, on))
	}
	b.StopTimer()

	off, on := median(offs), median(ons)
	exporterOv, pipelineOv := median(expOv), median(pipeOv)
	b.ReportMetric(off, "rpcs/sec_off")
	b.ReportMetric(on, "rpcs/sec_on")
	b.ReportMetric(exporterOv*100, "exporter_overhead_%")
	b.ReportMetric(pipelineOv*100, "colocated_overhead_%")
}

// median of a small sample; averages the middle pair on even sizes.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
