package main

import (
	"bytes"
	"testing"
)

var miniSizes = sizes{Preload: 2000, Rate: 200, Prime: 100, Tail: 50,
	Ingest: 10000, Batch: 200, Sample: 50, ProbeOps: 100}

// TestStreamDeterministic checks that a seed fixes the request stream
// byte for byte and that another seed changes it.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := buildPlan(w, 7, 1, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(w, 7, 1, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.stream) == 0 || len(a.tail) == 0 {
			t.Fatalf("%s: empty stream or tail", w)
		}
		if len(a.stream) != len(b.stream) {
			t.Fatalf("%s: stream lengths %d and %d", w, len(a.stream), len(b.stream))
		}
		for i := range a.stream {
			x, y := a.stream[i], b.stream[i]
			if x.method != y.method || x.path != y.path || !bytes.Equal(x.body, y.body) {
				t.Fatalf("%s: request %d differs between two builds of seed 7", w, i)
			}
		}
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, hashes %s and %s", w, a.hash(), b.hash())
		}
		c, err := buildPlan(w, 8, 1, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

// TestSteadyMix checks the open-loop schedule: due times ascend at the
// configured rate and the mix is the documented one.
func TestSteadyMix(t *testing.T) {
	sz := miniSizes
	sz.Rate = 1000
	p, err := buildPlan("steady", 3, 4, sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.due) != len(p.stream) {
		t.Fatalf("%d due times for %d requests", len(p.due), len(p.stream))
	}
	if n := float64(len(p.due)); n < 3600 || n > 4400 {
		t.Errorf("%v arrivals in 4 s at 1000/s", n)
	}
	counts := map[opKind]float64{}
	for i, o := range p.stream {
		counts[o.kind]++
		if i > 0 && p.due[i] < p.due[i-1] {
			t.Fatalf("due times descend at %d", i)
		}
	}
	n := float64(len(p.stream))
	for kind, want := range map[opKind]float64{opRepeat: 0.7, opFresh: 0.1, opEntity: 0.1, opInsert: 0.1} {
		if got := counts[kind] / n; got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}
