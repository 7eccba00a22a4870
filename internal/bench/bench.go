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

// experiments is the one registry of experiment ids: Run accepts
// exactly these, and RunAll runs the paper's tables and figures (paper
// true) in this order. The ablations and reshard run only by id.
var experiments = []struct {
	id    string
	run   func(io.Writer, Options) error
	paper bool
}{
	{ExpTable2, Table2, true},
	{ExpFig2a, Fig2a, true},
	{ExpFig2b, Fig2b, true},
	{ExpFig3, Fig3, true},
	{ExpFig4, Fig4, true},
	{ExpFig5, Fig5, true},
	{ExpTable3, Table3, true},
	{ExpFig6, Fig6, true},
	{ExpFig7a, Fig7a, true},
	{ExpFig7b, Fig7b, true},
	{ExpFig7c, Fig7c, true},
	{ExpFig8, Fig8, true},
	{ExpTable4, Table4, true},
	{ExpAblationShipping, AblationShipping, false},
	{ExpAblationBlocking, AblationBlocking, false},
	{ExpReshard, Reshard, false},
}

// Names lists every experiment id Run accepts, in presentation order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.id
	}
	return names
}

// Run executes one experiment by id, writing its report to w.
func Run(name string, w io.Writer, o Options) error {
	for _, e := range experiments {
		if e.id == name {
			return e.run(w, o.withDefaults())
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (known: %v)", name, Names())
}

// RunAll executes the paper's tables and figures in paper order,
// stopping on the first error.
func RunAll(w io.Writer, o Options) error {
	o = o.withDefaults()
	for _, e := range experiments {
		if !e.paper {
			continue
		}
		if err := e.run(w, o); err != nil {
			return fmt.Errorf("bench: %s: %w", e.id, err)
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
