package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unpack writes the files of a text archive, each introduced by a line
// "-- path --", under a fresh directory and returns that directory.
func unpack(t *testing.T, archive string) string {
	t.Helper()
	b, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if n, ok := strings.CutPrefix(strings.TrimSpace(line), "-- "); ok && strings.HasSuffix(n, " --") {
			name = strings.TrimSuffix(n, " --")
		} else if name != "" {
			files[name] += line
		}
	}
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCheckFixture runs the gate over testdata/tree.txt, a module with one
// instance of each finding: it must report exactly these. A dead method
// that shares its name with a live func, a func only dead code calls, a type
// only its own methods name, unexported names and a method of a reached
// type that implements no reached interface are findings too. The name
// only bench/ calls, the names only a blank declaration or init calls, the
// allowlisted name, the io.Writer method fmt calls, the Unwrap errors.Is
// calls and the reference from a file under testdata/ must not change
// that.
func TestCheckFixture(t *testing.T) {
	root := unpack(t, filepath.Join("testdata", "tree.txt"))
	got, err := check(root, filepath.Join(root, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = strings.TrimPrefix(got[i], filepath.ToSlash(root)+"/")
	}
	want := []string{
		"allow.txt:3: allowlist entry live.Used is not a finding: delete the entry",
		"allow.txt:4: allowlist entry live.Gone is not a finding: delete the entry",
		"internal/live/live.go:12: live.hidden is reached by no main",
		"internal/live/live.go:14: live.unusedVar is reached by no main",
		"internal/live/live.go:16: live.unusedConst is reached by no main",
		"internal/live/live.go:21: live.T.Uncalled is reached by no main",
		"internal/live/live.go:22: live.T.Used is reached by no main",
		"internal/live/live.go:50: live.Square.Area is reached by no main",
		"internal/live/live.go:7: live.Dead is reached by no main",
		"internal/live/live.go:8: live.Helper is reached by no main",
		"internal/live/live.go:9: live.TestOnly is reached by no main",
		"internal/orphan/orphan.go:3: orphan.Node is reached by no main",
		"internal/orphan/orphan.go:5: orphan.Node.self is reached by no main",
	}
	if !slices.Equal(got, want) {
		t.Errorf("check reported\n%q\nwant\n%q", got, want)
	}
}
