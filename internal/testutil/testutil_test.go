package testutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chtemp moves the test into a fresh directory so golden's relative
// testdata/golden paths land in scratch space.
func chtemp(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatalf("restore wd: %v", err)
		}
	})
	return dir
}

func TestGoldenUpdateThenMatch(t *testing.T) {
	dir := chtemp(t)
	content := []byte("{\n  \"answer\": 42\n}\n")
	if err := golden("trace.json", content, true); err != nil {
		t.Fatalf("update: %v", err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "testdata", "golden", "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(content) {
		t.Fatalf("recorded %q, want %q", onDisk, content)
	}
	if err := golden("trace.json", content, false); err != nil {
		t.Fatalf("replay of identical bytes should pass, got %v", err)
	}
	// Through the public entry point as well.
	Golden(t, "trace.json", content, false)
}

func TestGoldenMismatchWritesArtifact(t *testing.T) {
	dir := chtemp(t)
	if err := golden("trace.json", []byte("a\nb\nc\n"), true); err != nil {
		t.Fatal(err)
	}
	err := golden("trace.json", []byte("a\nB\nc\n"), false)
	if err == nil {
		t.Fatal("mismatch must error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name the first differing line, got: %v", err)
	}
	gotPath := filepath.Join(dir, "testdata", "golden", "trace.json.got")
	artifact, rerr := os.ReadFile(gotPath)
	if rerr != nil {
		t.Fatalf("mismatch must leave a .got artifact: %v", rerr)
	}
	if string(artifact) != "a\nB\nc\n" {
		t.Fatalf("artifact holds %q", artifact)
	}
	// A subsequent passing comparison clears the stale artifact.
	if err := golden("trace.json", []byte("a\nb\nc\n"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gotPath); !os.IsNotExist(err) {
		t.Fatalf("stale .got artifact should be removed, stat err: %v", err)
	}
}

func TestGoldenMissingFileMentionsUpdate(t *testing.T) {
	chtemp(t)
	err := golden("never-recorded.json", []byte("x"), false)
	if err == nil {
		t.Fatal("missing golden must error")
	}
	if !strings.Contains(err.Error(), "-update") {
		t.Fatalf("error should point at the -update workflow, got: %v", err)
	}
}

func TestGoldenTruncationDiff(t *testing.T) {
	chtemp(t)
	if err := golden("g", []byte("one\ntwo\n"), true); err != nil {
		t.Fatal(err)
	}
	err := golden("g", []byte("one"), false)
	if err == nil {
		t.Fatal("shorter file must mismatch")
	}
	if !strings.Contains(err.Error(), "line 1") && !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("truncation should locate the divergence, got: %v", err)
	}
	if !strings.Contains(err.Error(), `"two"`) {
		t.Fatalf("diff should quote the missing golden line, got: %v", err)
	}
}

func TestFirstDiffLine(t *testing.T) {
	line, w, g := firstDiffLine([]byte("a\nb"), []byte("a\nc"))
	if line != 2 || w != `"b"` || g != `"c"` {
		t.Fatalf("got line %d want %s got %s", line, w, g)
	}
	// A trailing-newline-only difference must still be located, not
	// reported as a phantom "line 0" match.
	line, w, g = firstDiffLine([]byte("a"), []byte("a\n"))
	if line != 2 || w != "<EOF>" || g != `""` {
		t.Fatalf("trailing newline diff: got line %d want %s got %s", line, w, g)
	}
}

func TestWaitNoLeaksSettles(t *testing.T) {
	base := GoroutineBaseline()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { <-done }()
	}
	close(done)
	WaitNoLeaks(t, base, 5*time.Second)
}

// TestCarveDetectsStrayWrites pins the guard check the kernel tests rely on:
// a fresh carve reads intact, and a write just before or just after the
// slice does not.
func TestCarveDetectsStrayWrites(t *testing.T) {
	for _, toEnd := range []bool{false, true} {
		v, c := Carve(4, toEnd, uint64(0x7ff8deadbeefcafe))
		if len(v) != 4 || cap(v) != 4 || !c.Intact() {
			t.Fatalf("toEnd %v: fresh carve has len %d cap %d, intact %v", toEnd, len(v), cap(v), c.Intact())
		}
		if toEnd != (c.Lo+c.N == len(c.Backing)) {
			t.Fatalf("toEnd %v: the slice ends at %d of %d", toEnd, c.Lo+c.N, len(c.Backing))
		}
		c.Backing[c.Lo-1] = 0
		if c.Intact() {
			t.Fatalf("toEnd %v: a write before the slice went unnoticed", toEnd)
		}
	}
	_, c := Carve(4, false, -0x1.deadbeefcafep+700)
	c.Backing[c.Lo+c.N] = 0
	if c.Intact() {
		t.Fatal("a write after the slice went unnoticed")
	}
}
