package main

import (
	"fmt"
	"io"
	"sort"
)

// compare.go holds the two reading aids over result files: the summary a
// -repeat invocation prints (median, quartiles, spread over bound), and
// -compare old.json new.json, which marks every (workload, end-to-end
// metric) pair better / within bound / worse / unresolved.

// series collects, per workload and metric, the values of the gated runs
// in the order they were made.
type series map[string]map[string][]float64

func collect(runs []workloadResult) series {
	s := make(series)
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], v.Value)
		}
	}
	return s
}

// gatedNames lists the end-to-end metrics and fail_ratio, in print order.
func gatedNames() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd...), metricSpec{Name: failRatio, Unit: "ratio", Better: lower})
}

// printRepeatSummary prints, per (workload, metric), the median, the
// quartiles and the spread against the metric's bound. This is how the
// bounds were calibrated and how "two sets agree" is shown.
func printRepeatSummary(w io.Writer, runs []workloadResult) {
	s := collect(runs)
	fmt.Fprintln(w, "== summary over repeated runs (spread = (q3-q1)/median, quartiles as Python's statistics.quantiles n=4)")
	fmt.Fprintf(w, "   %-16s %-14s %3s %14s %14s %14s %8s %6s %12s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "bound", "spread/bound")
	for _, wl := range workloads {
		for _, m := range gatedNames() {
			vs := s[wl.Name][m.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q3 := quartiles(vs)
			sp := spread(vs)
			ratio := "-"
			if m.Bound > 0 {
				ratio = fmt.Sprintf("%.2f", sp/m.Bound)
			}
			fmt.Fprintf(w, "   %-16s %-14s %3d %14.4f %14.4f %14.4f %7.1f%% %5.0f%% %12s\n",
				wl.Name, m.Name, len(vs), median(vs), q1, q3, 100*sp, 100*m.Bound, ratio)
		}
	}
}

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares two sets of one metric. A difference counts only when
// it exceeds both the bound and the run-to-run spread; where the spread
// is wider than the bound the pair is unresolved, not unchanged.
func judge(m metricSpec, base, cur []float64) (verdict string, worse, noise float64) {
	worse = worseBy(m.Better, median(base), median(cur))
	noise = max(spread(base), spread(cur))
	switch {
	case m.Name == failRatio:
		if median(cur) > median(base) {
			return verdictWorse, worse, noise
		}
		return verdictWithin, worse, noise
	case worse > m.Bound && worse > noise:
		return verdictWorse, worse, noise
	case worse < -m.Bound && -worse > noise:
		return verdictBetter, worse, noise
	case noise > m.Bound:
		return verdictUnresolved, worse, noise
	default:
		return verdictWithin, worse, noise
	}
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the exit code: non-zero on any "worse", a higher fail_ratio, or
// a pair present in only one file.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldFile, err := readResultFile(oldPath)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 2
	}
	newFile, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "old: %s  git=%s  %s\n", oldPath, oldFile.Fingerprint.GitSHA, oldFile.Fingerprint.CPUModel)
	fmt.Fprintf(w, "new: %s  git=%s  %s\n", newPath, newFile.Fingerprint.GitSHA, newFile.Fingerprint.CPUModel)
	if oldFile.Fingerprint.CPUModel != newFile.Fingerprint.CPUModel || oldFile.Fingerprint.NProc != newFile.Fingerprint.NProc {
		fmt.Fprintln(w, "warning: the two files come from different machines; timings are not comparable")
	}
	olds, news := collect(oldFile.Runs), collect(newFile.Runs)
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %8s %7s %6s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "worse by", "spread", "bound", "verdict")
	counts := make(map[string]int)
	missing := false
	var names []string
	for name := range olds {
		names = append(names, name)
	}
	for name := range news {
		if _, ok := olds[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range gatedNames() {
			base, cur := olds[wl][m.Name], news[wl][m.Name]
			if len(base) == 0 || len(cur) == 0 {
				fmt.Fprintf(w, "%-16s %-14s present in only one file\n", wl, m.Name)
				missing = true
				continue
			}
			verdict, worse, noise := judge(m, base, cur)
			counts[verdict]++
			ratio := "-"
			if mb := median(base); mb != 0 {
				ratio = fmt.Sprintf("%.3f", median(cur)/mb)
			}
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %9s %+7.1f%% %6.1f%% %5.0f%%  %s (n=%d vs %d)\n",
				wl, m.Name, median(base), median(cur), ratio, 100*worse, 100*noise, 100*m.Bound, verdict, len(base), len(cur))
		}
	}
	fmt.Fprintf(w, "%d better, %d within bound, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 || missing {
		return 1
	}
	return 0
}
