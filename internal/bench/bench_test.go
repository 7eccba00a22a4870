package bench

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"time"
)

// quickOpts compresses everything hard so the full harness smoke-runs
// inside go test.
func quickOpts() Options {
	return Options{Scale: 0.01, Quick: true}
}

func runExp(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(name, &buf, quickOpts()); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", name, err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "===") {
		t.Fatalf("%s produced no report:\n%s", name, out)
	}
	return out
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &buf, quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// paperIDs are the 13 tables and figures RunAll runs, in paper order.
var paperIDs = []string{
	ExpTable2, ExpFig2a, ExpFig2b, ExpFig3, ExpFig4, ExpFig5,
	ExpTable3, ExpFig6, ExpFig7a, ExpFig7b, ExpFig7c, ExpFig8,
	ExpTable4,
}

// stubExperiments swaps every runner in the experiment table for one
// that records its id, restoring the table when the test ends.
func stubExperiments(t *testing.T) *[]string {
	t.Helper()
	saved := experiments
	t.Cleanup(func() { experiments = saved })
	ran := new([]string)
	experiments = slices.Clone(saved)
	for i := range experiments {
		id := experiments[i].id
		experiments[i].run = func(io.Writer, Options) error {
			*ran = append(*ran, id)
			return nil
		}
	}
	return ran
}

// TestRegistry pins Run's dispatch with the runners stubbed out: Run
// runs exactly the table's ids, rejecting the retired stages, statefun
// and chaos experiments.
func TestRegistry(t *testing.T) {
	ran := stubExperiments(t)
	accepted := append(slices.Clone(paperIDs), ExpAblationShipping, ExpAblationBlocking, ExpReshard)
	for _, tc := range []struct {
		ids []string
		ok  bool
	}{
		{accepted, true},
		{[]string{"stages", "statefun", "chaos", "all", "nope"}, false},
	} {
		for _, id := range tc.ids {
			*ran = nil
			err := Run(id, io.Discard, quickOpts())
			if tc.ok && (err != nil || !slices.Equal(*ran, []string{id})) {
				t.Fatalf("Run(%q): err %v, ran %v", id, err, *ran)
			}
			if !tc.ok && (err == nil || len(*ran) != 0) {
				t.Fatalf("Run(%q) accepted (ran %v)", id, *ran)
			}
		}
	}
}

// TestNamesComplete pins that -list (Names) prints every table and
// figure then the by-id extras, and that RunAll runs the 13 paper ids
// in paper order.
func TestNamesComplete(t *testing.T) {
	ran := stubExperiments(t)
	want := append(slices.Clone(paperIDs), ExpAblationShipping, ExpAblationBlocking, ExpReshard)
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if err := RunAll(io.Discard, quickOpts()); err != nil || !slices.Equal(*ran, paperIDs) {
		t.Fatalf("RunAll: err %v, ran %v, want %v", err, *ran, paperIDs)
	}
}

// TestAblationNames pins that both ablations are listed and run by id,
// and that RunAll leaves them out.
func TestAblationNames(t *testing.T) {
	ran := stubExperiments(t)
	for _, id := range []string{ExpAblationShipping, ExpAblationBlocking} {
		if !slices.Contains(Names(), id) {
			t.Fatalf("Names() lacks %q", id)
		}
		*ran = nil
		if err := Run(id, io.Discard, quickOpts()); err != nil || !slices.Equal(*ran, []string{id}) {
			t.Fatalf("Run(%q): err %v, ran %v", id, err, *ran)
		}
	}
	*ran = nil
	if err := RunAll(io.Discard, quickOpts()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{ExpAblationShipping, ExpAblationBlocking} {
		if slices.Contains(*ran, id) {
			t.Fatalf("RunAll ran ablation %q", id)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	out := runExp(t, ExpTable2)
	for _, sys := range []string{"S3", "Redis", "Infinispan", "Crucial", "rf=2"} {
		if !strings.Contains(out, sys) {
			t.Fatalf("table2 missing system %q:\n%s", sys, out)
		}
	}
}

func TestFig2aSmoke(t *testing.T) {
	out := runExp(t, ExpFig2a)
	if !strings.Contains(out, "crucial") || !strings.Contains(out, "redis") {
		t.Fatalf("fig2a missing systems:\n%s", out)
	}
}

func TestFig2bSmoke(t *testing.T) {
	out := runExp(t, ExpFig2b)
	if !strings.Contains(out, "SPEEDUP") {
		t.Fatalf("fig2b missing speedup column:\n%s", out)
	}
}

func TestFig3Smoke(t *testing.T) {
	out := runExp(t, ExpFig3)
	if !strings.Contains(out, "CRUCIAL") || !strings.Contains(out, "8-CORE") {
		t.Fatalf("fig3 missing columns:\n%s", out)
	}
}

func TestFig4Smoke(t *testing.T) {
	out := runExp(t, ExpFig4)
	if !strings.Contains(out, "spark") || !strings.Contains(out, "LOSS") {
		t.Fatalf("fig4 missing content:\n%s", out)
	}
}

func TestFig5Smoke(t *testing.T) {
	out := runExp(t, ExpFig5)
	if !strings.Contains(out, "CRUCIAL-REDIS") {
		t.Fatalf("fig5 missing redis variant:\n%s", out)
	}
}

func TestTable3Smoke(t *testing.T) {
	out := runExp(t, ExpTable3)
	if !strings.Contains(out, "logistic regression") || !strings.Contains(out, "k-means") {
		t.Fatalf("table3 missing experiments:\n%s", out)
	}
}

func TestFig6Smoke(t *testing.T) {
	out := runExp(t, ExpFig6)
	for _, v := range []string{"pywren-s3", "sqs", "crucial-future", "crucial-autoreduce"} {
		if !strings.Contains(out, v) {
			t.Fatalf("fig6 missing variant %q:\n%s", v, out)
		}
	}
}

func TestFig7aSmoke(t *testing.T) {
	out := runExp(t, ExpFig7a)
	if !strings.Contains(out, "SNS+SQS") {
		t.Fatalf("fig7a missing baseline:\n%s", out)
	}
}

func TestFig7bSmoke(t *testing.T) {
	out := runExp(t, ExpFig7b)
	for _, label := range []string{"a0", "a1", "b0", "b1", "INVOCATION", "S3 READ"} {
		if !strings.Contains(out, label) {
			t.Fatalf("fig7b missing %q:\n%s", label, out)
		}
	}
}

func TestFig7cSmoke(t *testing.T) {
	out := runExp(t, ExpFig7c)
	if !strings.Contains(out, "POJO") || !strings.Contains(out, "cloud threads") {
		t.Fatalf("fig7c missing variants:\n%s", out)
	}
}

func TestFig8Smoke(t *testing.T) {
	out := runExp(t, ExpFig8)
	if !strings.Contains(out, "before crash") || !strings.Contains(out, "after addition") {
		t.Fatalf("fig8 missing phases:\n%s", out)
	}
}

func TestTable4Smoke(t *testing.T) {
	out := runExp(t, ExpTable4)
	for _, app := range []string{"montecarlo", "logreg", "kmeans", "santa"} {
		if !strings.Contains(out, app) {
			t.Fatalf("table4 missing app %q:\n%s", app, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if modeled(time.Second, 0.1) != 10*time.Second {
		t.Fatal("modeled conversion wrong")
	}
	if modeled(time.Second, 0) != time.Second {
		t.Fatal("modeled with zero scale should pass through")
	}
	samples := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	if mean(samples) != 2*time.Second {
		t.Fatalf("mean = %v", mean(samples))
	}
	if percentile(samples, 0) != time.Second || percentile(samples, 1) != 3*time.Second {
		t.Fatal("percentile bounds wrong")
	}
	if percentile(nil, 0.5) != 0 || mean(nil) != 0 {
		t.Fatal("empty-sample helpers wrong")
	}
}

func TestAblationShippingSmoke(t *testing.T) {
	out := runExp(t, ExpAblationShipping)
	if !strings.Contains(out, "method shipping") || !strings.Contains(out, "data shipping") {
		t.Fatalf("ablation-shipping missing strategies:\n%s", out)
	}
}

func TestAblationBlockingSmoke(t *testing.T) {
	out := runExp(t, ExpAblationBlocking)
	if !strings.Contains(out, "blocking") || !strings.Contains(out, "polling") {
		t.Fatalf("ablation-blocking missing rows:\n%s", out)
	}
}

func TestReshardSmoke(t *testing.T) {
	out := runExp(t, ExpReshard)
	for _, cfg := range []string{"static", "sharded", "elastic"} {
		if !strings.Contains(out, cfg) {
			t.Fatalf("reshard missing %q row:\n%s", cfg, out)
		}
	}
}
