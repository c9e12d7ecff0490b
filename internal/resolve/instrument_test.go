package resolve

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/telemetry"
)

// telCapture collects slog records emitted through a telemetry
// handle's logger.
type telCapture struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *telCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *telCapture) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r)
	return nil
}
func (h *telCapture) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *telCapture) WithGroup(string) slog.Handler      { return h }

// TestResolveTelemetryCounters: the per-call instruments agree with
// the store's own lifetime totals after a mixed local/LLM workload.
func TestResolveTelemetryCounters(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	client := &countingClient{}
	s := New(client, Options{CacheSize: -1, Telemetry: tel})

	qText, cText := midBandPair(t, 7)
	if err := s.AddBatch([]entity.Record{
		rec("r1", "sony dsc120b cybershot camera silver"),
		rec("r2", "makita impact drill kit 18v"),
		rec("r3", cText),
	}); err != nil {
		t.Fatal(err)
	}

	// One confident local resolve, one mid-band escalation.
	if _, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(rec("q2", qText)); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if got := tel.ResolveTotal.Value(); got != st.Resolves {
		t.Errorf("em_resolve_total = %d, stats resolves = %d", got, st.Resolves)
	}
	if got := tel.Candidates.Value(); got != uint64(st.Candidates) {
		t.Errorf("em_resolve_candidates_total = %d, stats = %d", got, st.Candidates)
	}
	if got := tel.OutcomeAccept.Value(); got != uint64(st.LocalAccepts) {
		t.Errorf("outcome accept = %d, stats = %d", got, st.LocalAccepts)
	}
	if got := tel.OutcomeReject.Value(); got != uint64(st.LocalRejects) {
		t.Errorf("outcome reject = %d, stats = %d", got, st.LocalRejects)
	}
	if got := tel.OutcomeLLM.Value(); got != uint64(st.LLMPairs) {
		t.Errorf("outcome llm = %d, stats = %d", got, st.LLMPairs)
	}
	if tel.ResolveErrors.Value() != 0 {
		t.Errorf("resolve errors = %d, want 0", tel.ResolveErrors.Value())
	}
	if got := tel.ResolveSeconds.Count(); got != 2 {
		t.Errorf("em_resolve_seconds count = %d, want 2", got)
	}

	// Every always-on stage saw both resolves; LLM stages only the
	// escalated one.
	for _, st := range []telemetry.Stage{
		telemetry.StageExtract, telemetry.StageBlock,
		telemetry.StageJournal, telemetry.StageScore, telemetry.StageFold,
	} {
		if got := tel.Stage[st].Count(); got != 2 {
			t.Errorf("stage %s count = %d, want 2", st, got)
		}
	}
	if got := tel.Stage[telemetry.StageLLM].Count(); got != 1 {
		t.Errorf("stage llm count = %d, want 1", got)
	}
	if got := tel.Stage[telemetry.StagePersist].Count(); got != 0 {
		t.Errorf("stage persist count = %d on in-memory store, want 0", got)
	}

	// The pipeline counter saw the one escalated client call.
	if got := tel.Pipeline.Calls.Value(); got != uint64(client.calls.Load()) {
		t.Errorf("em_llm_calls_total = %d, client calls = %d", got, client.calls.Load())
	}
	// Blocking instruments tracked the index queries (one per shard
	// per resolve).
	if tel.Blocking.Queries.Value() == 0 {
		t.Error("em_blocking_queries_total stayed zero")
	}

	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"em_resolve_total 2",
		`em_resolve_stage_seconds_count{stage="block"} 2`,
		`em_cascade_outcomes_total{outcome="llm"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestResolveTelemetryPersist: a durable store records WAL append,
// fsync and snapshot activity.
func TestResolveTelemetryPersist(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	s, err := Open(&countingClient{}, Options{
		PersistDir: t.TempDir(),
		SyncEvery:  1,
		Telemetry:  tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec("r1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if got := tel.Persist.AppendSeconds.Count(); got != 2 { // record + resolve entry
		t.Errorf("wal append count = %d, want 2", got)
	}
	if tel.Persist.FsyncSeconds.Count() == 0 {
		t.Error("em_wal_fsync_seconds stayed zero with SyncEvery=1")
	}
	if got := tel.Stage[telemetry.StagePersist].Count(); got != 1 {
		t.Errorf("stage persist count = %d, want 1", got)
	}
	if got := tel.Stage[telemetry.StageJournal].Count(); got != 1 {
		t.Errorf("stage journal count = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tel.Persist.Snapshots.Value() == 0 || tel.Persist.SnapshotSeconds.Count() == 0 {
		t.Error("close did not record the final snapshot")
	}
	if tel.Persist.SnapshotBytes.Value() <= 0 {
		t.Errorf("snapshot bytes = %d, want > 0", tel.Persist.SnapshotBytes.Value())
	}
	// em_journal_bytes is journal.log as the checkpoint committed it —
	// the stat reports the same file.
	if got, want := tel.Persist.JournalBytes.Value(), s.Stats().Persist.JournalBytes; got <= 0 || got != want {
		t.Errorf("journal bytes gauge = %d, stat = %d, want equal and > 0", got, want)
	}
}

// TestResolveContextTrace: a trace attached to the context collects
// the per-stage span tree of exactly its own request.
func TestResolveContextTrace(t *testing.T) {
	s := New(&countingClient{}, Options{}) // no telemetry: trace alone activates the observer
	if err := s.Add(rec("r1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("req-1")
	ctx := telemetry.WithTrace(context.Background(), tr)
	if _, err := s.ResolveContext(ctx, rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	durs := tr.Durations()
	var total time.Duration
	for st := 0; st < telemetry.NumStages; st++ {
		total += durs[st]
	}
	if total <= 0 {
		t.Fatalf("trace collected no spans: %v", durs)
	}
	if durs[telemetry.StageBlock] <= 0 {
		t.Errorf("block span = %v, want > 0", durs[telemetry.StageBlock])
	}
	if durs[telemetry.StageLLM] != 0 {
		t.Errorf("llm span = %v on a local decision, want 0", durs[telemetry.StageLLM])
	}

	// Without a trace and without telemetry the call still works.
	if _, err := s.ResolveContext(context.Background(), rec("q2", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
}

// TestResolveSlowLogEmission: a threshold of 1ns makes every resolve
// slow; the exemplar line carries the trace ID and stage durations.
func TestResolveSlowLogEmission(t *testing.T) {
	capture := &telCapture{}
	tel := telemetry.New(telemetry.Options{
		Logger:       slog.New(capture),
		SlowResolve:  time.Nanosecond,
		SlowLogEvery: -1,
	})
	s := New(&countingClient{}, Options{Telemetry: tel})
	if err := s.Add(rec("r1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("slow-req")
	ctx := telemetry.WithTrace(context.Background(), tr)
	if _, err := s.ResolveContext(ctx, rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if tel.SlowResolves.Value() != 1 {
		t.Errorf("em_slow_resolves_total = %d, want 1", tel.SlowResolves.Value())
	}
	capture.mu.Lock()
	defer capture.mu.Unlock()
	if len(capture.records) != 1 {
		t.Fatalf("slow lines = %d, want 1", len(capture.records))
	}
	recd := capture.records[0]
	attrs := map[string]slog.Value{}
	recd.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value
		return true
	})
	if got := attrs["trace_id"].String(); got != "slow-req" {
		t.Errorf("trace_id = %q, want slow-req", got)
	}
	if got := attrs["query_id"].String(); got != "q1" {
		t.Errorf("query_id = %q, want q1", got)
	}
	stages, ok := attrs["stages"]
	if !ok || len(stages.Group()) == 0 {
		t.Fatalf("slow line carries no stage spans: %v", attrs)
	}
}

// minAllocsPerRun reports the minimum over attempts AllocsPerRun
// windows. A stray allocation from a background goroutine (GC
// finalizers, the race runtime's shadow bookkeeping) occasionally
// lands inside a single window and can only ever inflate the count,
// so the minimum is the true per-op cost — one stray made the exact
// equality assertions below flaky under -race.
func minAllocsPerRun(attempts int, f func()) float64 {
	best := testing.AllocsPerRun(200, f)
	for i := 1; i < attempts; i++ {
		if a := testing.AllocsPerRun(200, f); a < best {
			best = a
		}
	}
	return best
}

// TestResolveAllocBudgetWithTelemetry pins the observability cost on
// the hot path: a resolve with full telemetry enabled allocates
// exactly as much as one without — instruments are atomics and the
// stage observer stays on the stack.
func TestResolveAllocBudgetWithTelemetry(t *testing.T) {
	build := func(tel *telemetry.Telemetry) *Store {
		s := New(benchClient{}, Options{Telemetry: tel})
		for i := 0; i < 500; i++ {
			if err := s.Add(rec(fmt.Sprintf("r%04d", i),
				fmt.Sprintf("sony camera model%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	measure := func(s *Store) float64 {
		q := rec("q0001", "sony camera digital model0001")
		// Warm the scratch pools before measuring.
		for i := 0; i < 10; i++ {
			if _, err := s.Resolve(q); err != nil {
				t.Fatal(err)
			}
		}
		return minAllocsPerRun(3, func() {
			if _, err := s.Resolve(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(build(nil))
	instrumented := measure(build(telemetry.New(telemetry.Options{})))
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	if instrumented > base+slack {
		t.Errorf("telemetry added allocations: %v allocs/op with, %v without", instrumented, base)
	}
}
