// Command crucial-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	crucial-bench -list
//	crucial-bench -exp table2
//	crucial-bench -exp all -scale 0.1
//	crucial-bench reshard -quick
//
// The experiment may be given positionally (`crucial-bench fig7a -quick`)
// or via -exp. `-exp all` runs the paper's tables and figures in paper
// order; -list prints every id -exp accepts, the ablations and reshard
// included. Scale compresses simulated latencies and modeled compute;
// reports are always printed in modeled (paper-scale) units. -quick shrinks
// workloads to smoke-test size.
package main

import (
	"flag"
	"fmt"
	"os"

	"crucial/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp   = flag.String("exp", "all", "experiment id or 'all'")
		scale = flag.Float64("scale", 0.1, "time compression factor (0 < scale <= 1)")
		quick = flag.Bool("quick", false, "shrink workloads to smoke-test size")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	// Accept the experiment id positionally (`crucial-bench fig7a -quick`):
	// the flag package stops at the first non-flag argument, so lift it into
	// -exp before parsing.
	argv := os.Args[1:]
	if len(argv) > 0 && len(argv[0]) > 0 && argv[0][0] != '-' {
		argv = append([]string{"-exp", argv[0]}, argv[1:]...)
	}
	_ = flag.CommandLine.Parse(argv)

	if *list {
		for _, name := range bench.Names() {
			fmt.Println(name)
		}
		return 0
	}
	opts := bench.Options{Scale: *scale, Quick: *quick}
	var err error
	if *exp == "all" {
		err = bench.RunAll(os.Stdout, opts)
	} else {
		err = bench.Run(*exp, os.Stdout, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crucial-bench:", err)
		return 1
	}
	return 0
}
