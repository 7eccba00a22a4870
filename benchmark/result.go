package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported number. Slices holds the raw per-slice (or
// per-repetition) values the reported median was taken over; Samples is
// how many observations stand behind it.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Slices  []float64 `json:"slices,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Callers   int                    `json:"callers"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	CheckErr  string                 `json:"check_error,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	WallS     float64                `json:"wall_s"`
	// Spans are the benchmark-owned spans of a traced run.
	Spans []spanRec `json:"spans,omitempty"`
}

// fingerprint records where and from what the numbers came.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
	Time       string `json:"time"`
}

// loadModel states, in the result file, how load was applied.
type loadModel struct {
	Kind         string `json:"kind"`
	ClientConns  int    `json:"client_connections"`
	CallsPerConn int    `json:"outstanding_calls_per_connection"`
	Callers      int    `json:"callers"` // a run's own count is in its "callers"
	Windows      int    `json:"windows_per_run"`
	Slices       int    `json:"slices_per_window"`
	Network      string `json:"network"`
}

// resultFile is what -out writes: every run of the invocation beside the
// machine it ran on.
type resultFile struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	LoadModel   loadModel        `json:"load_model"`
	Runs        []workloadResult `json:"runs"`
}

const networkNote = "in-process rpc.MemNetwork with netsim.Zero(): message delay is zero, so latency is processor time only"

func newResultFile() resultFile {
	return resultFile{
		Fingerprint: takeFingerprint(),
		LoadModel: loadModel{
			Kind: "closed loop", ClientConns: clientConns, CallsPerConn: callsPerConn,
			Callers: callers, Windows: gatedWindows, Slices: slicesPerWindow, Network: networkNote,
		},
	}
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitSHA:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		_ = f.Close() // read-only
	}
	// A checkout that is not a git repository has no sha to give.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitSHA = strings.TrimSpace(string(out))
	}
	return fp
}

func newResult(w workloadSpec, seed int64, seconds float64, traced bool) workloadResult {
	return workloadResult{
		Workload: w.Name, Callers: w.Callers, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: make(map[string]metricValue),
	}
}

func (r *workloadResult) set(name, unit string, value float64, slices []float64, samples int) {
	r.Metrics[name] = metricValue{Value: value, Unit: unit, Slices: slices, Samples: samples}
}

func (r *workloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fill takes the windows' verdict, counts and metrics: each per-slice
// metric is the steady mean of its slices, the live heap the median over
// windows.
func (r *workloadResult) fill(m measured) {
	r.Attempted, r.Failed = m.stats.attempted, m.stats.failed
	r.Correct = m.checkErr == nil
	if m.checkErr != nil {
		r.CheckErr = m.checkErr.Error()
	}
	for _, spec := range endToEnd {
		if vs, ok := m.stats.perSlice[spec.Name]; ok {
			r.set(spec.Name, spec.Unit, steady(vs, spec.Better), vs, m.stats.samples)
		}
	}
	r.set("live_heap_mb", "MB", median(m.liveHeap), m.liveHeap, len(m.liveHeap))
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	r.set(failRatio, "ratio", ratio, nil, r.Attempted)
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func (r *workloadResult) contractLine(specs []metricSpec) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	for _, spec := range specs {
		v, ok := r.Metrics[spec.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, spec.Name)
		}
		line.Metrics[spec.Name] = mv{v.Value, spec.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// print writes the run for a reader: every metric by name with its unit,
// the per-slice values behind each median, and the sample count.
func (r *workloadResult) print(w io.Writer) {
	mode := "gated, tracing off"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  callers=%d  seed=%d  window=%gs  (%s)  wall=%.1fs\n", r.Workload, r.Callers, r.Seed, r.Seconds, mode, r.WallS)
	verdict := "ok"
	if !r.Correct {
		verdict = "VIOLATED: " + r.CheckErr
	}
	fmt.Fprintf(w, "   correctness check: %s   attempted=%d failed=%d\n", verdict, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "   %-38s %14.4f %-6s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d", v.Samples)
		}
		if len(v.Slices) > 0 {
			fmt.Fprintf(w, " slices=%s", formatFloats(v.Slices))
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// metricOrder sorts metrics as spec.go lists them.
func metricOrder(name string) int {
	for i, m := range endToEnd {
		if m.Name == name {
			return i
		}
	}
	if name == failRatio {
		return len(endToEnd)
	}
	for i, m := range perLayer {
		if m.Name == name {
			return len(endToEnd) + 1 + i
		}
	}
	return len(endToEnd) + len(perLayer) + 1
}

func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func writeResultFile(path string, rf resultFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
