// Command experiments runs the paper-reproduction experiment suite
// (one per figure/table — see DESIGN.md; -list prints the registered
// ids) and prints each report, separated by blank lines. The full run
// prints exactly internal/experiments/testdata/reports.golden. With
// -only it runs a single experiment.
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -only E17  # just the broadband experiment
package main

import (
	"flag"
	"fmt"
	"os"

	"mits/internal/experiments"
)

func main() {
	entries := experiments.All()
	only := flag.String("only", "", fmt.Sprintf("run a single experiment id (%s..%s; -list prints all %d)",
		entries[0].ID, entries[len(entries)-1].ID, len(entries)))
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range entries {
			fmt.Println(e.ID)
		}
		return
	}

	failed := 0
	ran := 0
	for _, e := range entries {
		if *only != "" && e.ID != *only {
			continue
		}
		ran++
		rep, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", e.ID, err)
			failed++
			continue
		}
		if ran > 1 {
			fmt.Println()
		}
		fmt.Print(rep)
		if !rep.Pass {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment %q (use -list)\n", *only)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed shape checks\n", failed)
		os.Exit(1)
	}
}
