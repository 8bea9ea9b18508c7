package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runFile is what -out writes and -compare reads: every run's end-to-end
// values per workload, the traced pass's per-layer values, and where they
// were measured.
type runFile struct {
	Host       string                   `json:"host"`
	Go         string                   `json:"go"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Commit     string                   `json:"commit"`
	Seed       uint64                   `json:"seed"`
	Seconds    float64                  `json:"seconds"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	Typical   map[string][]float64 `json:"typical"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
}

// child runs one workload in a process of its own, so peak RSS, CPU time and
// GC state belong to that workload alone, and returns its result line. exe
// is the benchmark binary to run: this one, or the other side of a pair.
func child(exe, name string, seed uint64, seconds float64, traced bool, spans string) (resultLine, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if spans != "" {
			args = append(args, "-spans", spans)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return resultLine{}, fmt.Errorf("%s: bad result line: %w", name, err)
	}
	// The typical metrics are not in the result line; they are among the
	// `workload metric value unit` lines before it.
	res.Typical = map[string]metricValue{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(string(line))
		if len(f) != 4 || f[0] != name {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			res.Typical[f[1]] = metricValue{v, f[3]}
		}
	}
	return res, nil
}

// allOptions is the all-workloads mode's command line.
type allOptions struct {
	seed    uint64
	seconds float64
	reps    int
	traced  bool
	spans   string
	out     string
	// pair, when set, is a second benchmark binary (the parent commit's, or
	// this one again): every run is made with both, back to back, alternating
	// which goes first, and the pair's numbers go to pairOut. Two sets taken
	// that way have seen the same box; two sets taken an hour apart have not.
	pair, pairOut string
}

// side is one binary's runs.
type side struct {
	label, exe, out string
	file            runFile
}

// addRun records one untraced run's end-to-end values, addTrace the traced
// pass's per-layer values.
func (s *side) addRun(name string, res resultLine) {
	runs := s.file.Workloads[name]
	runs.Attempted += res.Attempted
	runs.Failed += res.Failed
	for _, d := range endToEnd {
		runs.EndToEnd[d.Name] = append(runs.EndToEnd[d.Name], res.Metrics[d.Name].Value)
	}
	for _, d := range typical {
		runs.Typical[d.Name] = append(runs.Typical[d.Name], res.Typical[d.Name].Value)
	}
}

func (s *side) addTrace(name string, res resultLine) {
	runs := s.file.Workloads[name]
	runs.Attempted += res.Attempted
	runs.Failed += res.Failed
	runs.PerLayer = map[string]float64{}
	for _, d := range perLayer {
		runs.PerLayer[d.Name] = res.Metrics[d.Name].Value
	}
}

// runAll runs every workload reps times untraced (and once traced), prints
// one line per metric and optionally writes the run file.
func runAll(o allOptions) error {
	if o.reps < 1 {
		return errors.New("-reps must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	sides := []*side{{exe: self, out: o.out}}
	if o.pair != "" {
		sides = append(sides, &side{label: "pair ", exe: o.pair, out: o.pairOut})
	}
	for _, s := range sides {
		s.file = runFile{Host: host, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Commit: commit, Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadRuns{}}
	}
	if o.pair != "" {
		sides[1].file.Commit = "pair " + o.pair
	}
	fmt.Printf("# host %s, %s, GOMAXPROCS %d, commit %s, seed %d, %gs windows, %d reps\n",
		host, runtime.Version(), runtime.GOMAXPROCS(0), commit, o.seed, o.seconds, o.reps)
	failed := 0
	for _, w := range workloads {
		for _, s := range sides {
			s.file.Workloads[w.name] = &workloadRuns{EndToEnd: map[string][]float64{}, Typical: map[string][]float64{}}
		}
		for rep := 0; rep < o.reps; rep++ {
			for k := range sides {
				s := sides[(k+rep)%len(sides)] // alternate which side goes first
				res, err := child(s.exe, w.name, o.seed, o.seconds, false, "")
				if err != nil {
					return err
				}
				s.addRun(w.name, res)
			}
		}
		if o.traced {
			for _, s := range sides {
				path := o.spans
				if path != "" {
					path = strings.TrimSuffix(path, ".json") + "." + strings.ReplaceAll(s.label+w.name, " ", "-") + ".json"
				}
				res, err := child(s.exe, w.name, o.seed, o.seconds, true, path)
				if err != nil {
					return err
				}
				s.addTrace(w.name, res)
			}
		}
		for _, s := range sides {
			runs := s.file.Workloads[w.name]
			for _, d := range endToEnd {
				v := runs.EndToEnd[d.Name]
				fmt.Printf("%s%s %s %.6g %s (q1 %.6g, q3 %.6g, n %d)\n", s.label, w.name, d.Name,
					median(v), d.Unit, quantile(v, 0.25), quantile(v, 0.75), len(v))
			}
			for _, d := range typical {
				v := runs.Typical[d.Name]
				fmt.Printf("%s%s %s %.6g %s (q1 %.6g, q3 %.6g, n %d)\n", s.label, w.name, d.Name,
					median(v), d.Unit, quantile(v, 0.25), quantile(v, 0.75), len(v))
			}
			if o.traced {
				for _, d := range perLayer {
					if _, repeated := runs.Typical[d.Name]; !repeated { // printed above, from every run
						fmt.Printf("%s%s %s %.6g %s\n", s.label, w.name, d.Name, runs.PerLayer[d.Name], d.Unit)
					}
				}
			}
			fmt.Printf("%s%s failed_share %g ratio (%d of %d operations)\n", s.label, w.name,
				float64(runs.Failed)/float64(runs.Attempted), runs.Failed, runs.Attempted)
			failed += runs.Failed
		}
	}
	for _, s := range sides {
		if s.out == "" {
			continue
		}
		b, err := json.MarshalIndent(s.file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / m
}

// verdict judges b against a on one metric: "regressed" when b's median is
// worse than a's by more than the bound; "unresolved" when either side's
// run-to-run spread is wider than the bound, unless every run of b reads
// better than every run of a, and when either side has no runs or a zero
// median to compare with; "ok" otherwise.
func verdict(d metricDef, a, b []float64) string {
	if median(a) == 0 || median(b) == 0 {
		return "unresolved"
	}
	lower := d.Better == "lower"
	better := func(x, y float64) bool { return (x < y) == lower && x != y }
	if max(spread(a), spread(b)) > d.Bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if !lower {
		worse = -worse
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload and metric — the end-to-end ones, then
// the typical ones — both medians, the ratio of b's to a's, the bound and
// the verdict. It fails on any regression, on a metric one side did not
// measure, and on a higher failed share; "unresolved" is printed, not failed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# a = %s (commit %s), b = %s (commit %s); ratio is b/a\n", pathA, a.Commit, pathB, b.Commit)
	var bad []string
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			bad = append(bad, wl.name+" missing")
			continue
		}
		judge := func(d metricDef, va, vb []float64) {
			v := verdict(d, va, vb)
			fmt.Fprintf(w, "%s %s a %.6g b %.6g %s ratio %.4f bound %.2f %s\n",
				wl.name, d.Name, median(va), median(vb), d.Unit, median(vb)/median(va), d.Bound, v)
			switch {
			case len(va) == 0 || len(vb) == 0:
				bad = append(bad, wl.name+" "+d.Name+" missing")
			case v == "regressed":
				bad = append(bad, wl.name+" "+d.Name+" regressed")
			}
		}
		for _, d := range endToEnd {
			judge(d, ra.EndToEnd[d.Name], rb.EndToEnd[d.Name])
		}
		for _, d := range typical {
			judge(d, ra.Typical[d.Name], rb.Typical[d.Name])
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		fmt.Fprintf(w, "%s failed_share a %g b %g ratio\n", wl.name, fa, fb)
		if fb > fa {
			bad = append(bad, wl.name+" failed_share rose")
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}
