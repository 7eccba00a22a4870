// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment has a runner that builds the
// systems involved, drives the workload, and prints rows/series in the
// shape the paper reports. Absolute numbers come from the simulated
// substrates (see DESIGN.md); the comparisons — who wins, by what factor,
// where the crossovers fall — are the reproduction targets, recorded in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Options control experiment sizing.
type Options struct {
	// Scale compresses simulated latencies and modeled compute
	// (default 0.1: 10x faster than the paper's wall clock). Some
	// experiments override it where measurement noise demands.
	Scale float64
	// Quick shrinks workloads to smoke-test size (used by `go test`).
	Quick bool
	// JSON, when non-nil, receives machine-readable results from
	// experiments that capture telemetry (currently the stages breakdown):
	// one JSON document with the experiment id and the final metrics
	// snapshot.
	JSON io.Writer
	// Report prints the critical-path analysis (per-category attribution of
	// trace wall time plus the slowest trace's path) after experiments that
	// run instrumented (currently the stages breakdown).
	Report bool
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	return o
}

// pick returns quick when o.Quick, else full.
func pick[T any](o Options, quick, full T) T {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment names in paper order.
const (
	ExpTable2 = "table2"
	ExpFig2a  = "fig2a"
	ExpFig2b  = "fig2b"
	ExpFig3   = "fig3"
	ExpFig4   = "fig4"
	ExpFig5   = "fig5"
	ExpTable3 = "table3"
	ExpFig6   = "fig6"
	ExpFig7a  = "fig7a"
	ExpFig7b  = "fig7b"
	ExpFig7c  = "fig7c"
	ExpFig8   = "fig8"
	ExpTable4 = "table4"
)

// Names lists every experiment id in presentation order.
func Names() []string {
	return []string{
		ExpTable2, ExpFig2a, ExpFig2b, ExpFig3, ExpFig4, ExpFig5,
		ExpTable3, ExpFig6, ExpFig7a, ExpFig7b, ExpFig7c, ExpFig8,
		ExpTable4,
	}
}

// Run executes one experiment by id, writing its report to w.
func Run(name string, w io.Writer, o Options) error {
	o = o.withDefaults()
	switch name {
	case ExpTable2:
		return Table2(w, o)
	case ExpFig2a:
		return Fig2a(w, o)
	case ExpFig2b:
		return Fig2b(w, o)
	case ExpFig3:
		return Fig3(w, o)
	case ExpFig4:
		return Fig4(w, o)
	case ExpFig5:
		return Fig5(w, o)
	case ExpTable3:
		return Table3(w, o)
	case ExpFig6:
		return Fig6(w, o)
	case ExpFig7a:
		return Fig7a(w, o)
	case ExpFig7b:
		return Fig7b(w, o)
	case ExpFig7c:
		return Fig7c(w, o)
	case ExpFig8:
		return Fig8(w, o)
	case ExpTable4:
		return Table4(w, o)
	case ExpAblationShipping:
		return AblationShipping(w, o)
	case ExpAblationBlocking:
		return AblationBlocking(w, o)
	case ExpStages:
		return Stages(w, o)
	case ExpChaos:
		return Chaos(w, o)
	case ExpReshard:
		return Reshard(w, o)
	case ExpStatefun:
		return Statefun(w, o)
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v + %v + %q + %q + %q + %q)",
			name, Names(), AblationNames(), ExpStages, ExpChaos, ExpReshard, ExpStatefun)
	}
}

// RunAll executes every experiment in order, stopping on the first error.
func RunAll(w io.Writer, o Options) error {
	for _, name := range Names() {
		if err := Run(name, w, o); err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
	}
	return nil
}

// --- report formatting ---

func title(w io.Writer, text string) {
	fmt.Fprintf(w, "\n=== %s ===\n", text)
}

func note(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "    "+format+"\n", args...)
}

func row(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

// modeled converts a measured real duration back to modeled (paper-scale)
// time by dividing out the compression factor.
func modeled(d time.Duration, scale float64) time.Duration {
	if scale <= 0 {
		return d
	}
	return time.Duration(float64(d) / scale)
}

// modeledSeconds is modeled as float seconds.
func modeledSeconds(d time.Duration, scale float64) float64 {
	return modeled(d, scale).Seconds()
}

// percentile returns the p-quantile (0..1) of a sample set.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// mean averages a sample set.
func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}
