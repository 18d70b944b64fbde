package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"llmq/internal/core"
)

// TestTrainWithCapacityFlags trains a bounded model from the CLI and checks
// the cap held and was persisted in the model file.
func TestTrainWithCapacityFlags(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	model := filepath.Join(dir, "model.bin")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "4000", "-dim", "2", "-seed", "4", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"train", "-data", data, "-a", "0.05", "-pairs", "2000",
		"-max-prototypes", "40", "-evict", "recency", "-merge", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Config(); c.MaxPrototypes != 40 || !c.Eviction.Recency || !c.MergeOnEvict {
		t.Fatalf("capacity config not persisted: %+v", c)
	}
	if k := m.K(); k == 0 || k > 40 {
		t.Fatalf("trained model has %d prototypes, want (0, 40]", k)
	}
	if err := run([]string{"train", "-data", data, "-pairs", "50", "-max-prototypes", "10", "-evict", "bogus", "-o", model}, &out); err == nil {
		t.Fatal("unknown -evict policy should fail")
	}
	// A policy without a capacity would silently train unbounded: reject.
	if err := run([]string{"train", "-data", data, "-pairs", "50", "-evict", "recency", "-o", model}, &out); err == nil {
		t.Fatal("train -evict without -max-prototypes should fail")
	}
	if err := run([]string{"train", "-data", data, "-pairs", "50", "-merge", "-o", model}, &out); err == nil {
		t.Fatal("train -merge without -max-prototypes should fail")
	}
}

// TestServeCapacityRecap re-caps a loaded model at serve startup: the
// served model must shrink to the requested budget.
func TestServeCapacityRecap(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	model := filepath.Join(dir, "model.bin")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "4000", "-dim", "2", "-seed", "6", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"train", "-data", data, "-a", "0.05", "-pairs", "2000", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	_, info, err := openServe(t, "-data", data, "-model", model, "-max-prototypes", "25", "-evict", "windecay")
	if err != nil {
		t.Fatalf("buildServer with recap: %v", err)
	}
	m := regexp.MustCompile(`K=(\d+)`).FindStringSubmatch(info)
	if m == nil {
		t.Fatalf("server info %q should report the model size", info)
	}
	if k, _ := strconv.Atoi(m[1]); k == 0 || k > 25 {
		t.Fatalf("served model has K=%d after re-capping to 25 (info %q)", k, info)
	}
	if _, _, err := openServe(t, "-data", data, "-model", model, "-max-prototypes", "10", "-evict", "bogus"); err == nil {
		t.Fatal("unknown eviction policy should fail server construction")
	}
	// Capacity flags without a model would silently arm nothing: reject.
	if _, _, err := openServe(t, "-data", data, "-max-prototypes", "10"); err == nil {
		t.Fatal("capacity flags without -model should fail server construction")
	}
	stmts := filepath.Join(dir, "s.txt")
	if err := os.WriteFile(stmts, []byte("SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := run([]string{"batch", "-data", data, "-file", stmts, "-max-prototypes", "10"}, &out2); err == nil {
		t.Fatal("batch capacity flags without APPROX statements should fail")
	}
}

// TestApplyCapacityPreservesPersistedCap: -evict or -merge alone must
// switch the policy of a model file's persisted cap, never remove the cap
// (and -evict alone must not clobber a persisted merge setting).
func TestApplyCapacityPreservesPersistedCap(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.MaxPrototypes = 77
	cfg.Eviction = core.Eviction{} // win decay
	cfg.MergeOnEvict = true
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(cp capacity) error { return applyCapacity(m.Config(), cp, m.SetCapacity) }
	if err := apply(capacity{evict: "recency"}); err != nil {
		t.Fatal(err)
	}
	got := m.Config()
	if got.MaxPrototypes != 77 {
		t.Fatalf("-evict alone removed the persisted cap: MaxPrototypes=%d", got.MaxPrototypes)
	}
	if !got.Eviction.Recency {
		t.Fatalf("-evict recency not applied: %#v", got.Eviction)
	}
	if !got.MergeOnEvict {
		t.Fatal("-evict alone clobbered the persisted merge setting")
	}
	// An explicit -max-prototypes 0 does remove the cap.
	if err := apply(capacity{maxProto: 0, maxSet: true}); err != nil {
		t.Fatal(err)
	}
	if got := m.Config(); got.MaxPrototypes != 0 {
		t.Fatalf("explicit -max-prototypes 0 should uncap, got %d", got.MaxPrototypes)
	}
	// No capacity flags at all: a pure no-op.
	if err := apply(capacity{}); err != nil {
		t.Fatal(err)
	}
	// -evict/-merge on a model that now has no cap would arm nothing.
	if err := apply(capacity{evict: "recency"}); err == nil {
		t.Fatal("-evict on an uncapped model should fail")
	}
	if err := apply(capacity{merge: true, mergeSet: true}); err == nil {
		t.Fatal("-merge on an uncapped model should fail")
	}
}
