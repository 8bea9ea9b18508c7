package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "job.op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "job.work_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, []float64{108, 109, 107, 108, 108}, "ok"},
		{"slower beyond bound", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"throughput rose", higher, steady, []float64{130, 131, 129, 130, 130}, "ok"},
		{"too noisy to tell", lower, steady, []float64{90, 140, 100, 70, 120}, "unresolved"},
		{"noisy but every run better", lower, []float64{200, 260, 230, 300, 210}, []float64{90, 140, 100, 70, 120}, "ok"},
		{"metric missing from one side", lower, steady, nil, "unresolved"},
		{"metric missing from the base", lower, nil, steady, "unresolved"},
		{"zero median", higher, []float64{0, 0, 0}, steady, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// writeRunFile writes a run file whose op_p01_us reads opUS, whose
// job.op_p50_us reads twice that and every other metric 10, leaving out the
// metric called without.
func writeRunFile(t *testing.T, path string, opUS float64, failed int, without string) {
	t.Helper()
	f := runFile{Commit: "test", Workloads: map[string]*workloadRuns{}}
	for _, w := range workloads {
		runs := &workloadRuns{Attempted: 100, Failed: failed, EndToEnd: map[string][]float64{}, Typical: map[string][]float64{}}
		fill := func(into map[string][]float64, defs []metricDef) {
			for _, d := range defs {
				v := 10.0
				switch d.Name {
				case "op_p01_us":
					v = opUS
				case "job.op_p50_us":
					v = 2 * opUS
				}
				if d.Name != without {
					into[d.Name] = []float64{v, v * 1.01, v * 0.99}
				}
			}
		}
		fill(runs.EndToEnd, endToEnd)
		fill(runs.Typical, typical)
		f.Workloads[w.name] = runs
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReferencePair holds the committed same-commit pair (two sets of runs of
// one binary, taken alternately with -pair) to the benchmark's own rules:
// nothing regressed, every end-to-end metric agrees within its bound with
// neither side too noisy to tell (a typical metric may be unresolved: that
// is what the box does to medians), and the traced passes' exact counts are
// identical.
func TestReferencePair(t *testing.T) {
	var out bytes.Buffer
	if err := compareFiles(&out, "reference/a.json", "reference/b.json"); err != nil {
		t.Errorf("same-commit pair: %v", err)
	}
	for _, row := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(row, "unresolved") && !strings.Contains(row, " job.") {
			t.Errorf("same-commit pair has an unresolved end-to-end metric: %s", row)
		}
	}
	a, err := readRunFile("reference/a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readRunFile("reference/b.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, name := range []string{"transport.batch_bytes", "transport.partial_bytes", "transport.roundstart_bytes",
			"transport.update_bytes", "checkpoint.snapshot_bytes", "engine.participants_per_round", "serve.sse_events",
			"job.rounds", "job.target_round", "engine.updates_missed"} {
			va, ok := a.Workloads[w.name].PerLayer[name]
			if vb := b.Workloads[w.name].PerLayer[name]; !ok || va != vb {
				t.Errorf("%s %s: %v vs %v (recorded: %v)", w.name, name, va, vb, ok)
			}
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base, same, slow, slowish, failing, partial := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"),
		filepath.Join(dir, "c.json"), filepath.Join(dir, "d.json"), filepath.Join(dir, "e.json"), filepath.Join(dir, "f.json")
	writeRunFile(t, base, 100, 0, "")
	writeRunFile(t, same, 103, 0, "")
	writeRunFile(t, slow, 150, 0, "")
	writeRunFile(t, slowish, 115, 0, "")
	writeRunFile(t, failing, 100, 1, "")
	writeRunFile(t, partial, 100, 0, "job.work_per_s")

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("same commit: %v", err)
	}
	for _, w := range workloads {
		for _, row := range []string{" op_p01_us a 100 b 103 us ratio 1.0300 bound 0.25 ok", " job.op_p50_us a 200 b 206 us ratio 1.0300 bound 0.10 ok"} {
			if !strings.Contains(out.String(), w.name+row) {
				t.Errorf("no row %q for %s in:\n%s", row, w.name, out.String())
			}
		}
	}
	if err := compareFiles(&out, base, slow); err == nil || !strings.Contains(err.Error(), " op_p01_us regressed") {
		t.Errorf("slower commit: %v", err)
	}
	// 15 % slower is inside the end-to-end bound and outside the typical one.
	if err := compareFiles(&out, base, slowish); err == nil || strings.Contains(err.Error(), " op_p01_us regressed") ||
		!strings.Contains(err.Error(), "job.op_p50_us regressed") {
		t.Errorf("slightly slower commit: %v", err)
	}
	if err := compareFiles(&out, base, failing); err == nil || !strings.Contains(err.Error(), "failed_share rose") {
		t.Errorf("failing commit: %v", err)
	}
	if err := compareFiles(&out, base, partial); err == nil || !strings.Contains(err.Error(), "job.work_per_s missing") {
		t.Errorf("commit without job.work_per_s: %v", err)
	}
}
