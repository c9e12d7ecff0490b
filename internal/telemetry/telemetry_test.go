package telemetry

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter Value = %d", c.Value())
	}
	var g *Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 0 {
		t.Errorf("nil gauge Value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram is not inert")
	}
}

func TestCounterGauge(t *testing.T) {
	c := &Counter{}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	g := &Gauge{}
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Errorf("gauge = %d, want 6", g.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Errorf("sum = %v, want 106", got)
	}
	// Bucket occupancy: le=1 holds {0.5, 1}, le=2 holds {1.5}, le=4
	// holds {3}, +Inf holds {100}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in the first bucket
	}
	// Interpolation inside [0, 1]: p50 ≈ 0.5.
	if q := h.Quantile(0.5); math.Abs(q-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5", q)
	}
	// +Inf observations clamp to the largest finite bound.
	h2 := newHistogram([]float64{1, 2, 4})
	h2.Observe(1000)
	if q := h2.Quantile(0.99); q != 4 {
		t.Errorf("p99 with only +Inf = %v, want 4", q)
	}
	if q := h2.Quantile(0); q != 0 {
		t.Errorf("q=0 = %v, want 0", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DurationBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); math.Abs(got-8) > 1e-6 {
		t.Errorf("sum = %v, want 8", got)
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "A test counter")
	c.Add(3)
	g := reg.Gauge("test_depth", "A test gauge", "queue", "main")
	g.Set(5)
	reg.GaugeFunc("test_live", "A computed gauge", func() float64 { return 1.5 })
	h := reg.Histogram("test_seconds", "A test histogram", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total A test counter",
		"# TYPE test_total counter",
		"test_total 3",
		`test_depth{queue="main"} 5`,
		"# TYPE test_live gauge",
		"test_live 1.5",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="1"} 1`,
		`test_seconds_bucket{le="2"} 1`,
		`test_seconds_bucket{le="+Inf"} 2`,
		"test_seconds_sum 3.5",
		"test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryLabeledChildrenAndSorting(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("multi_total", "by outcome", "outcome", "accept")
	b := reg.Counter("multi_total", "by outcome", "outcome", "reject")
	a.Inc()
	b.Add(2)
	// Labels render sorted by key regardless of argument order.
	reg.Counter("sorted_total", "sorted", "zeta", "z", "alpha", "a").Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE multi_total counter") != 1 {
		t.Error("family header duplicated per child")
	}
	for _, want := range []string{
		`multi_total{outcome="accept"} 1`,
		`multi_total{outcome="reject"} 2`,
		`sorted_total{alpha="a",zeta="z"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
	reg := NewRegistry()
	reg.Counter("esc_total", "escapes", "path", "a\"b").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b"} 1`) {
		t.Errorf("escaped label missing:\n%s", b.String())
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash", "first as counter")
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	reg.Gauge("clash", "now as gauge")
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("abc")
	if tr.ID() != "abc" {
		t.Errorf("ID = %q", tr.ID())
	}
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Error("trace did not round-trip through context")
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context returned a trace")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil-safety is the contract under test
		t.Error("nil context returned a trace")
	}
	tr.Add(StageBlock, 2*time.Millisecond)
	tr.Add(StageBlock, 3*time.Millisecond)
	if d := tr.Durations()[StageBlock]; d != 5*time.Millisecond {
		t.Errorf("StageBlock = %v, want 5ms", d)
	}

	// Nil traces are fully inert.
	var nilTr *Trace
	nilTr.Add(StageLLM, time.Second)
	if nilTr.ID() != "" || nilTr.Durations() != (StageDurations{}) || !nilTr.Start().IsZero() {
		t.Error("nil trace is not inert")
	}
}

func TestGenerateID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := GenerateID()
		if len(id) != 16 {
			t.Fatalf("ID length = %d, want 16: %q", len(id), id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
	if NewTrace("").ID() == "" {
		t.Error("NewTrace(\"\") did not generate an ID")
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageExtract:      "extract",
		StageBlock:        "block",
		StageJournal:      "journal",
		StageScore:        "score",
		StageDispatchWait: "dispatch_wait",
		StageLLM:          "llm",
		StageFold:         "fold",
		StagePersist:      "persist",
		Stage(200):        "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

// captureHandler collects slog records for assertions.
type captureHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r)
	return nil
}
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *captureHandler) WithGroup(string) slog.Handler      { return h }

func (h *captureHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

func TestMaybeLogSlow(t *testing.T) {
	capt := &captureHandler{}
	tel := New(Options{
		Logger:       slog.New(capt),
		SlowResolve:  10 * time.Millisecond,
		SlowLogEvery: -1, // log every slow resolve
	})

	var durs StageDurations
	durs[StageBlock] = 8 * time.Millisecond
	durs[StageLLM] = 12 * time.Millisecond

	// Below threshold: no counter, no line.
	tel.MaybeLogSlow("t1", "q1", 5*time.Millisecond, durs)
	if tel.SlowResolves.Value() != 0 || capt.count() != 0 {
		t.Error("fast resolve was counted as slow")
	}

	// Above: counter and one line with trace ID and stage group.
	tel.MaybeLogSlow("t2", "q2", 20*time.Millisecond, durs)
	if tel.SlowResolves.Value() != 1 {
		t.Errorf("SlowResolves = %d, want 1", tel.SlowResolves.Value())
	}
	if capt.count() != 1 {
		t.Fatalf("log lines = %d, want 1", capt.count())
	}
	rec := capt.records[0]
	if rec.Message != "slow resolve" || rec.Level != slog.LevelWarn {
		t.Errorf("record = %q at %v", rec.Message, rec.Level)
	}
	attrs := map[string]slog.Value{}
	rec.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value
		return true
	})
	if got := attrs["trace_id"].String(); got != "t2" {
		t.Errorf("trace_id = %q", got)
	}
	if got := attrs["query_id"].String(); got != "q2" {
		t.Errorf("query_id = %q", got)
	}
	stages, ok := attrs["stages"]
	if !ok {
		t.Fatal("no stages group in slow line")
	}
	names := map[string]time.Duration{}
	for _, a := range stages.Group() {
		names[a.Key] = a.Value.Duration()
	}
	if names["block"] != 8*time.Millisecond || names["llm"] != 12*time.Millisecond {
		t.Errorf("stage group = %v", names)
	}
	if _, hasExtract := names["extract"]; hasExtract {
		t.Error("zero-duration stage rendered in slow line")
	}
}

func TestMaybeLogSlowSampling(t *testing.T) {
	capt := &captureHandler{}
	tel := New(Options{
		Logger:       slog.New(capt),
		SlowResolve:  time.Millisecond,
		SlowLogEvery: time.Hour, // at most one exemplar
	})
	for i := 0; i < 50; i++ {
		tel.MaybeLogSlow("t", "q", time.Second, StageDurations{})
	}
	if tel.SlowResolves.Value() != 50 {
		t.Errorf("SlowResolves = %d, want 50 (counter is unsampled)", tel.SlowResolves.Value())
	}
	if capt.count() != 1 {
		t.Errorf("log lines = %d, want 1 (sampled)", capt.count())
	}
}

func TestTelemetryNilSafety(t *testing.T) {
	var tel *Telemetry
	if tel.Registry() != nil {
		t.Error("nil telemetry leaks state")
	}
	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Error("nil telemetry wrote exposition")
	}
	tel.MaybeLogSlow("t", "q", time.Hour, StageDurations{})
	tel.Warn("background failure", errors.New("boom"))
}

func TestWarn(t *testing.T) {
	capt := &captureHandler{}
	New(Options{Logger: slog.New(capt)}).Warn("background failure", errors.New("boom"))
	if capt.count() != 1 || capt.records[0].Level != slog.LevelWarn || capt.records[0].Message != "background failure" {
		t.Errorf("Warn logged %+v, want one warning", capt.records)
	}
}

func TestTelemetryDisabledSlowLogging(t *testing.T) {
	capt := &captureHandler{}
	tel := New(Options{Logger: slog.New(capt)}) // SlowResolve zero: disabled
	tel.MaybeLogSlow("t", "q", time.Hour, StageDurations{})
	if tel.SlowResolves.Value() != 0 || capt.count() != 0 {
		t.Error("disabled slow logging still fired")
	}
}

func TestNewRegistersFamilies(t *testing.T) {
	tel := New(Options{})
	tel.ResolveTotal.Inc()
	tel.Stage[StageBlock].Observe(0.001)
	tel.OutcomeAccept.Add(2)
	tel.Dispatch.BatchPairs.Observe(4)
	tel.Pipeline.Calls.Inc()
	tel.Persist.FsyncSeconds.Observe(0.0001)

	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"em_resolve_total 1",
		`em_resolve_stage_seconds_count{stage="block"} 1`,
		`em_cascade_outcomes_total{outcome="accept"} 2`,
		`em_dispatch_flushes_total{reason="size"} 0`,
		"em_llm_calls_total 1",
		"em_wal_fsync_seconds_count 1",
		"em_snapshots_total 0",
		"em_blocking_postings_scanned_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
