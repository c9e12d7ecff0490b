package resolve

import (
	"runtime"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

// The store-level memory gates: retained heap bytes per stored record,
// measured where the benchmark's rss_mb is paid (Store.AddBatch), not
// at the index. heapPerRecordIngest holds a record no resolve has
// scored yet: 316 B/record measured (go1.24, amd64; 326 under -race),
// its empty 32 B extraction slot included. heapPerRecordExtracted
// holds one whose cached extraction is resident too, packed
// (features.Packed): 460 B/record measured (470 under -race), plus
// 10%.
const (
	heapPerRecordIngest    = 340
	heapPerRecordExtracted = 510
)

// The decision journal's memory gates: retained heap bytes per
// journaled decision, ten to a frame. Committed decisions cost only
// their frame's index entry; decisions since the last checkpoint also
// hold their encoded frame until it is appended to journal.log.
const (
	heapPerDecisionCommitted = 24
	heapPerDecisionDelta     = 100
)

// benchCorpusRecords is the stored side of the bench/ corpus: every
// pair's B of a seeded datasets.GroupedPairs("wdc") draw.
func benchCorpusRecords(t testing.TB, n int) []entity.Record {
	t.Helper()
	pairs, err := datasets.GroupedPairs("wdc", "101", n/2, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]entity.Record, len(pairs))
	for i, p := range pairs {
		recs[i] = p.B
	}
	return recs
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestStoreHeapPerRecord bulk-loads the benchmark's 32 000 records the
// way emserve's set-up does and holds what the store retains per
// record under the gate: after ingest alone, and once every record's
// extraction is resident.
func TestStoreHeapPerRecord(t *testing.T) {
	const n = 32000
	recs := benchCorpusRecords(t, n)
	for _, tc := range []struct {
		name      string
		extracted bool
		limit     int
	}{
		{"ingest", false, heapPerRecordIngest},
		{"extracted", true, heapPerRecordExtracted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := heapAlloc()
			s := New(benchClient{}, Options{})
			for i := 0; i < n; i += 200 {
				// A copy per batch, as a decoded request body is: the records'
				// strings must not be kept alive by the test's own slice alone.
				if err := s.AddBatch(append([]entity.Record(nil), recs[i:i+200]...)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.extracted {
				prefillExtractions(s)
			}
			after := heapAlloc()
			perRecord := float64(after-before) / n
			t.Logf("heap retained by %d AddBatch'ed records: %.0f B/record (limit %d)", n, perRecord, tc.limit)
			if perRecord > float64(tc.limit) {
				t.Errorf("store retains %.0f B/record, want <= %d", perRecord, tc.limit)
			}
			if got := s.Stats(); got.Records != n || got.Entities != n {
				t.Errorf("records=%d entities=%d, want %d singleton entities", got.Records, got.Entities, n)
			}
		})
	}
	runtime.KeepAlive(recs)
}

// TestJournalHeapPerDecision journals 100 000 decisions, ten to a query,
// on a persistent store and holds what the journal retains per decision
// under the gates: before the checkpoint that appends them to
// journal.log, after it, and after a reopen indexes them from the file.
func TestJournalHeapPerDecision(t *testing.T) {
	const n = 100000
	dir := t.TempDir()
	opts := Options{PersistDir: dir, SnapshotEvery: -1}
	check := func(when string, before uint64, limit int) {
		t.Helper()
		perDecision := (float64(heapAlloc()) - float64(before)) / n
		t.Logf("heap retained by %d journaled decisions %s: %.1f B/decision (limit %d)", n, when, perDecision, limit)
		if perDecision > float64(limit) {
			t.Errorf("%s: the journal retains %.1f B/decision, want <= %d", when, perDecision, limit)
		}
	}
	s, err := Open(benchClient{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	growJournal(s, "q", n)
	check("before the checkpoint", before, heapPerDecisionDelta)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("after the checkpoint", before, heapPerDecisionCommitted)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = nil
	before = heapAlloc()
	if s, err = Open(benchClient{}, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after a reopen", before, heapPerDecisionCommitted)
	if got := s.Stats().Persist.JournalSize; got != n {
		t.Errorf("JournalSize = %d after the reopen, want %d", got, n)
	}
}
