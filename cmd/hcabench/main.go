// Command hcabench reruns the experiments of the reproduction (Table 1
// plus E2–E20, indexed in DESIGN.md) and prints the rows the way the
// paper reports them. internal/bench/testdata/experiments.golden pins
// this output with its timing columns masked, and EXPERIMENTS.md is
// written from it.
//
// Usage:
//
//	hcabench              # all experiments
//	hcabench -exp table1  # one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+bench.ExperimentNames()+", or all")
	flag.Parse()

	ran := false
	for _, e := range bench.Experiments {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		out, err := e.Run(context.Background())
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		fmt.Println(out)
		ran = true
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcabench:", err)
	os.Exit(1)
}
