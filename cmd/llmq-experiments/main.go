// Command llmq-experiments regenerates the paper's evaluation figures as
// text tables using the library's own substrates.
//
// Usage:
//
//	llmq-experiments [-scale quick|full] [-experiment fig09] [-list]
//
// Without -experiment every registered experiment runs in order. The quick
// scale finishes in well under a minute; the full scale runs the sizes a
// written reproduction (EXPERIMENTS.md, pending under ROADMAP item 1) is to
// record.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"llmq/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "llmq-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("llmq-experiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "experiment scale: quick or full")
	expID := fs.String("experiment", "", "run a single experiment by id (default: all)")
	list := fs.Bool("list", false, "list available experiments and exit")
	seed := fs.Int64("seed", 0, "override the random seed (0 keeps the scale default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return nil
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	selected := experiments.Registry()
	if *expID != "" {
		e, ok := experiments.Find(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		selected = []experiments.Experiment{e}
	}

	fmt.Printf("running %d experiment(s) at scale %q\n\n", len(selected), scale.Name)
	for _, e := range selected {
		start := time.Now()
		if err := experiments.RunAndRender(e, scale, os.Stdout); err != nil {
			return err
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
