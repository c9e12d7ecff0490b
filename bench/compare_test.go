package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "resolves_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, []float64{101, 100, 102, 100, 99}, "ok"},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 120}, "REGRESSED"},
		{"faster is not a regression", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 80}, "REGRESSED"},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"too noisy to tell", lower, []float64{100, 140, 70, 120, 90}, []float64{110, 150, 80, 100, 95}, "unresolved"},
		{"noisy but every run better", lower, []float64{100, 140, 170, 120, 190}, []float64{50, 40, 60, 45, 55}, "better"},
		{"noisy but every run worse", lower, []float64{50, 40, 60, 45, 55}, []float64{100, 140, 170, 120, 190}, "REGRESSED"},
		{"noisy, runs overlap, worse beyond bound and spread", higher, []float64{100, 140, 70, 120, 90}, []float64{30, 31, 29, 30, 32, 28, 75}, "REGRESSED"},
		{"noisy and worse within the spread", lower, []float64{100, 140, 70, 120, 90}, []float64{125, 160, 80, 140, 110}, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	worse, _, _ := verdict(higher, steady, []float64{80, 80, 80})
	if math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("worse = %v, want 0.2", worse)
	}
}
