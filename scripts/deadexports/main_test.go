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
// instance of each finding: it must report exactly these. The name only
// bench/ calls, the allowlisted name, the package that exports nothing and
// the reference from a file under testdata/ must not change that.
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
		"internal/live/live.go:13: live.T.Uncalled has no non-test reference",
		"internal/live/live.go:5: live.Dead has no non-test reference",
		"internal/live/live.go:6: live.TestOnly has no non-test reference",
		"internal/orphan: package orphan is imported by no non-test file",
	}
	if !slices.Equal(got, want) {
		t.Errorf("check reported\n%q\nwant\n%q", got, want)
	}
}
