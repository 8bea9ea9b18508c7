package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Artifacts persists experiment outputs in a layout suitable for external
// plotting and archival: one CSV per trajectory, one markdown report per
// comparison or sweep, and a manifest.json describing everything written.
type Artifacts struct {
	dir      string
	manifest manifest
}

type manifest struct {
	CreatedUnix int64          `json:"createdUnix"`
	Entries     []manifestItem `json:"entries"`
}

type manifestItem struct {
	Kind  string `json:"kind"`  // "comparison", "sweep", "series"
	Setup string `json:"setup"` // human-readable setup name
	Path  string `json:"path"`  // file path relative to the artifact root
	Note  string `json:"note,omitempty"`
}

// NewArtifacts creates (or reuses) the output directory.
func NewArtifacts(dir string) (*Artifacts, error) {
	if dir == "" {
		return nil, errors.New("experiment: empty artifact directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: create artifact dir: %w", err)
	}
	return &Artifacts{
		dir:      dir,
		manifest: manifest{CreatedUnix: time.Now().Unix()},
	}, nil
}

// Dir returns the artifact root.
func (a *Artifacts) Dir() string { return a.dir }

// SaveComparison writes a full pricing-scheme comparison: the markdown
// report plus one CSV per scheme trajectory.
func (a *Artifacts) SaveComparison(name string, c *Comparison) error {
	if c == nil {
		return errors.New("experiment: nil comparison")
	}
	reportPath := name + "_report.md"
	f, err := os.Create(filepath.Join(a.dir, reportPath))
	if err != nil {
		return fmt.Errorf("experiment: create report: %w", err)
	}
	if err := WriteComparisonReport(f, c); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	a.manifest.Entries = append(a.manifest.Entries, manifestItem{
		Kind: "comparison", Setup: c.Env.ID.String(), Path: reportPath,
	})
	for _, s := range c.Schemes {
		csvPath := fmt.Sprintf("%s_%v.csv", name, s.Scheme)
		cf, err := os.Create(filepath.Join(a.dir, csvPath))
		if err != nil {
			return fmt.Errorf("experiment: create series: %w", err)
		}
		if err := WriteSeriesCSV(cf, s); err != nil {
			_ = cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
		a.manifest.Entries = append(a.manifest.Entries, manifestItem{
			Kind: "series", Setup: c.Env.ID.String(), Path: csvPath,
			Note: fmt.Sprintf("%v pricing trajectory", s.Scheme),
		})
	}
	return nil
}

// SaveSweep writes a parameter-sweep report (Figs. 5–7 or Table V).
func (a *Artifacts) SaveSweep(name string, setup SetupID, kind SweepKind, points []SweepPoint, trained bool) error {
	if len(points) == 0 {
		return errors.New("experiment: empty sweep")
	}
	path := name + "_sweep.md"
	f, err := os.Create(filepath.Join(a.dir, path))
	if err != nil {
		return fmt.Errorf("experiment: create sweep: %w", err)
	}
	if err := WriteSweepReport(f, kind, points, trained); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	a.manifest.Entries = append(a.manifest.Entries, manifestItem{
		Kind: "sweep", Setup: setup.String(), Path: path,
		Note: kind.String(),
	})
	return nil
}

// Finalize writes the manifest; call it once after all saves.
func (a *Artifacts) Finalize() error {
	raw, err := json.MarshalIndent(a.manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(a.dir, "manifest.json"), raw, 0o644)
}
