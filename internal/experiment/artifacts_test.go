package experiment

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestArtifactsRoundTrip(t *testing.T) {
	opts := tinyOptions()
	opts.Rounds = 15
	opts.Runs = 1
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(context.Background(), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	points, err := EquilibriumSweep(context.Background(), env, SweepV, []float64{0, 4000}, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	a, err := NewArtifacts(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SaveComparison("setup1_fig4", cmp); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveSweep("setup1_table5", Setup1, SweepV, points, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}

	// Report exists and contains the expected sections.
	report, err := os.ReadFile(filepath.Join(a.Dir(), "setup1_fig4_report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "Table II") {
		t.Fatal("report missing table section")
	}
	// One CSV per scheme.
	for _, scheme := range []string{"proposed", "weighted", "uniform"} {
		csv, err := os.ReadFile(filepath.Join(a.Dir(), "setup1_fig4_"+scheme+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(csv), "time_s,loss,accuracy") {
			t.Fatalf("%s CSV malformed", scheme)
		}
	}
	// Manifest parses and indexes everything.
	raw, err := os.ReadFile(filepath.Join(a.Dir(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Entries []struct {
			Kind string `json:"kind"`
			Path string `json:"path"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 5 { // 1 report + 3 series + 1 sweep
		t.Fatalf("manifest entries %d", len(m.Entries))
	}
	for _, e := range m.Entries {
		if _, err := os.Stat(filepath.Join(a.Dir(), e.Path)); err != nil {
			t.Fatalf("manifest references missing file %s", e.Path)
		}
	}
}

func TestArtifactsErrors(t *testing.T) {
	if _, err := NewArtifacts(""); err == nil {
		t.Fatal("expected empty-dir error")
	}
	a, err := NewArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SaveComparison("x", nil); err == nil {
		t.Fatal("expected nil comparison error")
	}
	if err := a.SaveSweep("x", Setup1, SweepV, nil, false); err == nil {
		t.Fatal("expected empty sweep error")
	}
}
