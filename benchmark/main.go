// Command benchmark measures the whole Crucial stack from outside: four
// closed-loop workloads run in-process over rpc.MemNetwork, reporting
// end-to-end metrics with tracing off and per-layer metrics on a
// separate traced run. See README.md in this directory.
//
//	go run -C benchmark . -workload kv_read_mostly -seed 1
//	go run -C benchmark . -trace 1 -out result.json
//	go run -C benchmark . -repeat 3 -out set.json
//	go run -C benchmark . -compare old.json new.json
//	go run -C benchmark . -curve kv_write_hot
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the operations are generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured window per workload, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of the gated ones")
		out      = flag.String("out", "", "write every run of this invocation to this JSON file")
		repeat   = flag.Int("repeat", 1, "run the set this many times and print medians, quartiles and spread/bound")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		curve    = flag.String("curve", "", "open-loop diagnostic for this workload (printed only, not gated)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files: old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	if *curve != "" {
		w, ok := findWorkload(*curve)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *curve)
			return 2
		}
		return runCurve(os.Stdout, w, *seed)
	}

	selected := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadSpec{w}
	}

	began := time.Now()
	fmt.Printf("benchmark: %s\n", networkNote)
	fmt.Printf("benchmark: closed loop, %d connections x %d outstanding calls = %d callers (statefun_call: %d); %gs measured over %d set-ups in %d slices\n",
		clientConns, callsPerConn, callers, statefunCallers, *seconds, gatedWindows, sliceCount)
	rf := newResultFile()
	fmt.Printf("benchmark: %s, nproc=%d GOMAXPROCS=%d %s git=%s\n", rf.Fingerprint.CPUModel,
		rf.Fingerprint.NProc, rf.Fingerprint.GOMAXPROCS, rf.Fingerprint.GoVersion, rf.Fingerprint.GitSHA)

	failed := false
	var last workloadResult
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			var res workloadResult
			var err error
			if *trace == 1 {
				res, err = runTraced(w, *seed, *seconds)
			} else {
				res, err = runGated(w, *seed, *seconds, gatedWindows)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			res.print(os.Stdout)
			if !res.Correct {
				failed = true
			}
			rf.Runs = append(rf.Runs, res)
			last = res
		}
	}
	if *repeat > 1 {
		printRepeatSummary(os.Stdout, rf.Runs)
	}
	fmt.Printf("benchmark: total wall time %.1fs\n", time.Since(began).Seconds())
	if *out != "" {
		if err := writeResultFile(*out, rf); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// The driver runs one workload at a time and reads the last line.
	if len(selected) == 1 && *repeat == 1 {
		specs := endToEnd
		if *trace == 1 {
			specs = perLayer
		}
		line, err := last.contractLine(specs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Println(line)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: a correctness check was violated")
		return 1
	}
	return 0
}
