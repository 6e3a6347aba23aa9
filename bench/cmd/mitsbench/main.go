// Command mitsbench is the MITS session-path benchmark: four named
// workloads, end-to-end and per-layer metrics, and an outside-in traced
// pass. See ../../README.md.
//
//	mitsbench                          every workload, untraced then traced
//	mitsbench -workload stream_cold    one workload (the form the driver runs)
//	mitsbench -compare a.json b.json   judge two saved reports against the bounds
//	mitsbench -manifest                print BENCHMARK.json from the catalogue
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mits/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: stream_cold, browse_hot, session_mix, cluster_rw or all")
	seed := flag.Uint64("seed", 1, "workload seed; repetition i draws from seed+i")
	seconds := flag.Float64("seconds", 0, "total measured seconds per workload, split over the repetitions (overrides -duration)")
	duration := flag.Duration("duration", 5*time.Second, "measured window of one repetition")
	reps := flag.Int("reps", 5, "untraced repetitions per workload")
	trace := flag.Int("trace", -1, "0: untraced only; 1: also the traced pass, printing the per-layer metrics; default: 1 for all workloads, 0 for one")
	out := flag.String("out", "", "directory for results.json and the raw samples, op plans and spans")
	compare := flag.Bool("compare", false, "compare two results.json files (base, new) and exit non-zero if any metric is worse")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
	flag.Parse()

	switch {
	case *manifest:
		m, err := bench.Manifest()
		check(err)
		os.Stdout.Write(m)
		return
	case *compare:
		if flag.NArg() != 2 {
			fail("usage: mitsbench -compare base.json new.json")
		}
		a, err := bench.ReadReport(flag.Arg(0))
		check(err)
		b, err := bench.ReadReport(flag.Arg(1))
		check(err)
		if bench.Compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	one := *workload != "all"
	traced := *trace == 1 || (*trace < 0 && !one)
	opt := bench.Options{Seed: *seed, Reps: *reps, Duration: *duration, Warmup: time.Second, Out: *out}
	if traced {
		opt.TraceReps = 1
	}
	if *seconds > 0 {
		// The driver's form: a fixed budget of measured seconds. A
		// traced run spends half of it traced.
		opt.Reps = 4
		if traced {
			opt.Reps, opt.TraceReps = 2, 2
		}
		opt.Duration = time.Duration(*seconds / float64(opt.Reps+opt.TraceReps) * float64(time.Second))
	}
	names := []string{*workload}
	if !one {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	}

	host := bench.ThisHost()
	fmt.Printf("# mitsbench: %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s\n", host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Kernel, host.Commit)
	fmt.Printf("# %s; %d load goroutines on one pool of as many connections\n", host.Network, bench.DefaultClients())
	fmt.Printf("# seed %d, %d x %v untraced + %d x %v traced per workload\n", opt.Seed, opt.Reps, opt.Duration, opt.TraceReps, opt.Duration)
	fmt.Printf("# workload metric value unit n min max\n")
	report := &bench.Report{Host: host, Started: time.Now()}
	correct := true
	for _, name := range names {
		res, err := bench.RunWorkload(name, opt)
		check(err)
		res.Print(os.Stdout)
		report.Results = append(report.Results, res)
		correct = correct && res.Correct
	}
	if *out != "" {
		check(report.Write(filepath.Join(*out, "results.json")))
	}
	if one {
		// The verdict rides in the line; the exit code says only that
		// the benchmark itself ran.
		line, err := report.Results[0].ContractLine(traced)
		check(err)
		fmt.Println(line)
		return
	}
	if !correct {
		fail("a correctness or conservation check failed (see the VIOLATION lines)")
	}
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "mitsbench:", msg)
	os.Exit(1)
}
