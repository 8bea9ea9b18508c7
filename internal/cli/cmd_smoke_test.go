package cli

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdFlagParsing builds every binary under cmd/ and exercises its flag
// parsing: -h must print a usage listing the binary's signature flags and
// exit 0, and an unknown flag — or a flag the binary has retired, or a value
// the binary refuses — must be rejected with a non-zero status. This is the smoke net that catches a cmd whose flag wiring silently breaks —
// the library tests never execute package main.
func TestCmdFlagParsing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-o", binDir,
		"unbiasedfl/cmd/flsim", "unbiasedfl/cmd/flgame", "unbiasedfl/cmd/flnode", "unbiasedfl/cmd/flbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/...: %v\n%s", err, out)
	}

	cases := []struct {
		bin     string
		flags   []string // flags whose presence in the usage text is the contract
		retired []string // flags that must be rejected like any unknown one
		refused []string // flag=value arguments that must fail naming the flag
	}{
		{"flsim", []string{"-setup", "-scheme", "-scenario", "-clients", "-rounds", "-json", "-progress"}, nil, nil},
		// -budget and -meanv take a finite value >= 0 or the -1 "Table I"
		// sentinel; any other value must not fall back to Table I silently.
		{"flgame", []string{"-setup", "-budget", "-clients", "-json"}, nil,
			[]string{"-budget=-5", "-budget=NaN", "-budget=Inf", "-meanv=-3", "-meanv=NaN"}},
		// Membership is the coordinator's plan (-join/-leave n@r, as in
		// flsim); the device-initiated -leave-after went with the
		// uncoordinated prototype session.
		{"flnode", []string{"-role", "-addr", "-id", "-clients", "-rounds", "-round-timeout", "-join", "-leave"}, []string{"-leave-after"}, nil},
		{"flbench", []string{"-setup"}, nil, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bin, func(t *testing.T) {
			path := filepath.Join(binDir, tc.bin)

			// -h prints the flag set and exits 0.
			out, err := exec.Command(path, "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h: %v\n%s", tc.bin, err, out)
			}
			usage := string(out)
			for _, f := range tc.flags {
				if !strings.Contains(usage, f+" ") && !strings.Contains(usage, f+"\n") &&
					!strings.Contains(usage, f+"\t") {
					t.Errorf("%s usage does not document %s:\n%s", tc.bin, f, usage)
				}
			}

			// An unknown flag must be rejected before any work starts.
			for _, f := range append([]string{"-definitely-not-a-flag"}, tc.retired...) {
				out, err = exec.Command(path, f+"=1").CombinedOutput()
				if err == nil {
					t.Fatalf("%s accepted %s:\n%s", tc.bin, f, out)
				}
				if !strings.Contains(string(out), "flag provided but not defined") {
					t.Errorf("%s %s diagnostics drifted:\n%s", tc.bin, f, out)
				}
			}
			for _, arg := range tc.refused {
				out, err = exec.Command(path, arg).CombinedOutput()
				if err == nil {
					t.Fatalf("%s accepted %s:\n%s", tc.bin, arg, out)
				}
				if name, _, _ := strings.Cut(arg, "="); !strings.Contains(string(out), name+" ") {
					t.Errorf("%s %s: diagnostic does not name the flag:\n%s", tc.bin, arg, out)
				}
			}
		})
	}
}
