package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMiniature runs every workload end to end against a real emserve,
// untraced and traced, on a 2 000-record corpus with one-second phases,
// and checks that the result carries every metric BENCHMARK.json names.
func TestMiniature(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs emserve")
	}
	root, err := findRoot()
	if err != nil {
		t.Skip(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scratch := t.TempDir()
	bin, err := buildEmserve(ctx, root, scratch)
	if err != nil {
		t.Skipf("cannot build emserve: %v", err)
	}
	r := &runner{bin: bin, scratch: scratch, sizes: miniSizes, seconds: 1, conns: conns, crashes: 2, spareReopens: 1, perLayer: spec.PerLayer}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, the benchmark has %v", w.Name, workloadNames)
		}
	}
	// ingest is not in BENCHMARK.json (see README.md) and runs here all
	// the same.
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := r.run(ctx, name, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			want := slices.Concat(spec.EndToEnd, ungated)
			if traced {
				want = spec.PerLayer
			}
			for _, def := range want {
				m, ok := res.Metrics[def.Name]
				if !ok || m.Unit != def.Unit {
					t.Errorf("%s traced=%v: metric %s: present=%v unit %q, want unit %q", name, traced, def.Name, ok, m.Unit, def.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, def.Name, m.Value)
				}
			}
			if traced {
				if fi, err := os.Stat(res.SpanFile); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file %s: %v", name, res.SpanFile, err)
				}
				for _, name := range []string{"client.roundtrip", "resolve.Open", "blocking.Index.QueryTokens", "persist.WAL.Append"} {
					if _, ok := res.SelfUS[name]; !ok {
						t.Errorf("%s: no %s span recorded", name, name)
					}
				}
			}
		}
	}
	// Every server is dead and every directory gone.
	for _, pattern := range []string{"persist-*", "probe-*", "wal-*"} {
		if left, _ := filepath.Glob(filepath.Join(scratch, pattern)); len(left) != 0 {
			t.Errorf("left behind: %v", left)
		}
	}
}
