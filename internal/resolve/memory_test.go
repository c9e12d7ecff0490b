package resolve

import (
	"runtime"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

// heapPerRecordLimit is the store-level memory gate: retained heap
// bytes per stored record, measured where the benchmark's rss_mb is
// paid (Store.AddBatch), not at the index. 1 796 B/record with explicit
// singleton entities, a full cached extraction and a second record map.
const heapPerRecordLimit = 1350

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
// record under heapPerRecordLimit.
func TestStoreHeapPerRecord(t *testing.T) {
	const n = 32000
	recs := benchCorpusRecords(t, n)
	before := heapAlloc()
	s := New(benchClient{}, Options{})
	for i := 0; i < n; i += 200 {
		// A copy per batch, as a decoded request body is: the records'
		// strings must not be kept alive by the test's own slice alone.
		if err := s.AddBatch(append([]entity.Record(nil), recs[i:i+200]...)); err != nil {
			t.Fatal(err)
		}
	}
	after := heapAlloc()
	perRecord := float64(after-before) / n
	t.Logf("heap retained by %d AddBatch'ed records: %.0f B/record (limit %d)", n, perRecord, heapPerRecordLimit)
	if perRecord > heapPerRecordLimit {
		t.Errorf("store retains %.0f B/record, want <= %d", perRecord, heapPerRecordLimit)
	}
	if got := s.Stats(); got.Records != n || got.Entities != n {
		t.Errorf("records=%d entities=%d, want %d singleton entities", got.Records, got.Entities, n)
	}
	runtime.KeepAlive(recs)
}
