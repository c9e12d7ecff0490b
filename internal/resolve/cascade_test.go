package resolve

import (
	"errors"
	"reflect"
	"testing"

	"llm4em/internal/entity"
	"llm4em/internal/features"
)

func TestCascadeOptionEdges(t *testing.T) {
	var o CascadeOptions
	if o.acceptAbove() != DefaultAcceptAbove || o.rejectBelow() != DefaultRejectBelow {
		t.Errorf("zero options: accept %v reject %v", o.acceptAbove(), o.rejectBelow())
	}
	o = CascadeOptions{AcceptAbove: -1, RejectBelow: -1}
	if o.acceptAbove() <= 1 {
		t.Errorf("negative AcceptAbove must never accept locally, got threshold %v", o.acceptAbove())
	}
	if o.rejectBelow() >= 0 {
		t.Errorf("negative RejectBelow must never reject locally, got threshold %v", o.rejectBelow())
	}
	o = CascadeOptions{AcceptAbove: 0.8, RejectBelow: 0.3}
	if o.acceptAbove() != 0.8 || o.rejectBelow() != 0.3 {
		t.Errorf("explicit thresholds not honored: %v %v", o.acceptAbove(), o.rejectBelow())
	}

	custom := features.Ideal()
	custom.Bias += 1
	o = CascadeOptions{Weights: &custom}
	if got := o.weights(); !reflect.DeepEqual(got, custom) {
		t.Error("custom weights not used")
	}
	if got := (CascadeOptions{}).weights(); !reflect.DeepEqual(got, features.Ideal()) {
		t.Error("default weights are not Ideal")
	}

	if (CostReport{}).LocalFraction() != 1 {
		t.Error("empty CostReport.LocalFraction != 1")
	}
	if (Stats{}).LocalFraction() != 1 {
		t.Error("empty Stats.LocalFraction != 1")
	}
}

// TestPlanThresholdEdges pins where a pair at probability exactly 0
// or 1 goes: a negative threshold leaves it in the LLM band, so both
// thresholds negative escalate every pair.
func TestPlanThresholdEdges(t *testing.T) {
	zero, one := features.Weights{Bias: -1e4}, features.Weights{Bias: 1e4}
	query, cand := features.ExtractText("alpha beta"), features.ExtractText("gamma delta")
	for _, tc := range []struct {
		name string
		opts CascadeOptions
		want Method // "" means escalated to the LLM
	}{
		{"p=0, default reject", CascadeOptions{Weights: &zero}, MethodReject},
		{"p=0, negative reject", CascadeOptions{Weights: &zero, RejectBelow: -1}, ""},
		{"p=1, default accept", CascadeOptions{Weights: &one}, MethodAccept},
		{"p=1, negative accept", CascadeOptions{Weights: &one, AcceptAbove: -1}, ""},
		{"p=0, both negative", CascadeOptions{Weights: &zero, AcceptAbove: -1, RejectBelow: -1}, ""},
		{"p=1, both negative", CascadeOptions{Weights: &one, AcceptAbove: -1, RejectBelow: -1}, ""},
	} {
		p := tc.opts.plan(query, []string{"c1"}, []features.Extracted{cand}, []float64{1}, nil)
		d, escalated := p.decisions[0], len(p.llm) == 1
		if d.Method != tc.want || escalated != (tc.want == "") {
			t.Errorf("%s: probability %v decided by %q (escalated %v), want %q",
				tc.name, d.Probability, d.Method, escalated, tc.want)
		}
	}
}

func TestAddBatchStopsAtError(t *testing.T) {
	// An in-batch duplicate is caught by upfront validation: the whole
	// batch is rejected before anything is inserted.
	s := New(&countingClient{}, Options{})
	err := s.AddBatch([]entity.Record{
		rec("r1", "sony camera"),
		rec("r1", "sony camera duplicate"),
		rec("r2", "never reached"),
	})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("AddBatch: %v, want ErrDuplicateID", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len after in-batch duplicate = %d, want 0 (batch rejected upfront)", s.Len())
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Added != 0 {
		t.Errorf("error %v, want *BatchError with Added=0", err)
	}

	// An empty ID rejects the batch the same way.
	if err := s.AddBatch([]entity.Record{rec("", "no id")}); !errors.Is(err, ErrNoID) {
		t.Errorf("empty-ID batch: %v, want ErrNoID", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len after empty-ID batch = %d, want 0", s.Len())
	}

	// A duplicate against the store surfaces mid-insert: already
	// inserted records stay, and BatchError reports how many.
	if err := s.Add(rec("r1", "sony camera")); err != nil {
		t.Fatal(err)
	}
	err = s.AddBatch([]entity.Record{rec("r1", "dup against store")})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("store-dup batch: %v, want ErrDuplicateID", err)
	}
	if !errors.As(err, &be) || be.Added != 0 {
		t.Errorf("store-dup batch error %v, want *BatchError with Added=0", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len after store-dup batch = %d, want 1", s.Len())
	}
}
