//go:build linux

package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload once, traced, at a sixteenth of the
// benchmark's run length, and holds the code against BENCHMARK.json: the
// run verifies, and the metrics it emits are exactly the declared ones,
// each finite — so the manifest and the code cannot drift apart. It
// asserts nothing about the numbers, which a loaded test machine would
// bend.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five live clusters for a second each; skipped in -short")
	}
	man, err := loadManifest(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%s declares %d workloads, the code has %d", manifestPath, len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl := man.Workloads[i]; decl.Name != w.name || decl.Why != w.why {
			t.Errorf("workload %d: %s declares %q (%q), the code has %q (%q)",
				i, manifestPath, decl.Name, decl.Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			seconds := float64(man.RunSeconds) / 16
			m, err := run(w, runOptions{seed: 1, seconds: seconds, traced: true, outDir: dir, patience: 10})
			if err != nil {
				t.Fatal(err)
			}
			if len(m.ver.violations) != 0 || m.ver.failed != 0 || m.ver.attempted != w.broadcasts(seconds) {
				t.Errorf("attempted %d of %d, failed %d, violations %v",
					m.ver.attempted, w.broadcasts(seconds), m.ver.failed, m.ver.violations)
			}
			if _, err := declare(m.perLayer(), man.PerLayer); err != nil {
				t.Error(err)
			}
			values, err := declare(m.endToEnd(), man.EndToEnd)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range values {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want a positive number", name, v.Value)
				}
			}
			if err := writeSpans(filepath.Join(dir, "spans.jsonl"), m.c.recs); err != nil {
				t.Error(err)
			}
		})
	}
}
