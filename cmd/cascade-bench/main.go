// Command cascade-bench regenerates the paper's tables and figures.
//
//	cascade-bench -exp fig10          # one experiment
//	cascade-bench -exp all            # the whole evaluation
//	cascade-bench -list               # available experiment ids
//
// Scale knobs (-events, -epochs, -memdim) trade fidelity for runtime; the
// defaults finish each figure in seconds to minutes on a laptop.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/cascade-ml/cascade/internal/experiments"
)

func main() {
	set := experiments.DefaultSettings()
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.IntVar(&set.EventTarget, "events", set.EventTarget, "events per moderate dataset")
	flag.IntVar(&set.LargeEventTarget, "large-events", set.LargeEventTarget, "events per large dataset (fig14)")
	flag.IntVar(&set.BaseBatch, "base", set.BaseBatch, "base batch size (0 = proportional analog of the paper's 900)")
	flag.IntVar(&set.Epochs, "epochs", set.Epochs, "training epochs per run")
	flag.IntVar(&set.MemoryDim, "memdim", set.MemoryDim, "node memory width")
	flag.IntVar(&set.TimeDim, "timedim", set.TimeDim, "time encoding width")
	flag.IntVar(&set.FeatDim, "featdim", set.FeatDim, "edge feature width override")
	flag.IntVar(&set.Staleness, "staleness", set.Staleness, "bounded-staleness budget for every run (0 = exact; the 'staleness' experiment sweeps its own)")
	flag.Int64Var(&set.Seed, "seed", set.Seed, "random seed")
	flag.IntVar(&set.Workers, "workers", set.Workers, "CPU workers (0 = all cores)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs {
			fmt.Println(id)
		}
		return
	}

	r := experiments.New(set, os.Stdout)
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs
	}
	for _, id := range ids {
		start := time.Now()
		if err := r.Run(id); err != nil {
			fmt.Fprintf(os.Stderr, "cascade-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [%s took %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
