package resolve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/features"
)

// The store-level memory gates: retained heap bytes per stored record,
// measured where the benchmark's rss_mb is paid (Store.AddBatch), not
// at the index. heapPerRecordIngest holds a record after ingest, and
// again after a resolve scored it, which must add nothing: 235
// B/record measured (go1.24, amd64; 246 under -race), plus 10%; 254
// while each new token kept a 16 B IDF slot, 287 while a 32 B
// extraction slot per record, and 431 once every record's packed
// extraction, stayed resident. heapPerRecordCheckpointed holds one a
// checkpoint wrote to its shard's EMIX file, which the shard then
// serves from, after one Add of an unseen token per shard: 3.2–4.6
// B/record measured, plus 10%; 21 while each shard kept an IDF slot
// per base token.
const (
	heapPerRecordIngest       = 259
	heapPerRecordCheckpointed = 5
)

// firstResolveSlack bounds what a store's first resolve allocates
// besides its score accumulator: blocking buffers, extractions,
// features and decisions. 93 500–97 300 B measured (go1.24, amd64,
// GOMAXPROCS 1–4), plus 10%.
const firstResolveSlack = 105 << 10

// The decision journal's memory gates: retained heap bytes per
// journaled decision, ten to a frame. Committed decisions cost only
// their frame's index entry; decisions since the last checkpoint also
// hold their encoded frame until it is appended to journal.log: 57.8
// B/decision measured with version-2 payloads (93.0 with version 1),
// plus 10%.
const (
	heapPerDecisionCommitted = 24
	heapPerDecisionDelta     = 64
)

// heapPerGraphID is the entity graph's memory gate: retained heap
// bytes per graph ID, folded as TestGraphHeapPerID folds them. 121 B/ID
// measured (go1.24, amd64; 123 under -race), plus 10%; 246 while the
// graph kept string-keyed maps and each query's record string.
const heapPerGraphID = 133

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
// record under the gate: after ingest alone; after resolves that score
// every record as a candidate, which must retain nothing per record
// (no extraction outlives its resolve); and on a persistent store
// after a checkpoint followed by one Add of an unseen token to every
// shard — the Add that would regrow a tail keyed densely by token ID
// to the base vocabulary.
func TestStoreHeapPerRecord(t *testing.T) {
	const n = 32000
	recs := benchCorpusRecords(t, n)
	for _, tc := range []struct {
		name                 string
		scored, checkpointed bool
		limit                int
	}{
		{"ingest", false, false, heapPerRecordIngest},
		{"scored", true, false, heapPerRecordIngest},
		{"checkpointed", false, true, heapPerRecordCheckpointed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := heapAlloc()
			opts := Options{}
			if tc.checkpointed {
				opts = Options{PersistDir: t.TempDir(), SnapshotEvery: -1}
			}
			s, err := Open(benchClient{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < n; i += 200 {
				// A copy per batch, as a decoded request body is: the records'
				// strings must not be kept alive by the test's own slice alone.
				if err := s.AddBatch(append([]entity.Record(nil), recs[i:i+200]...)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.scored {
				scoreEveryRecord(t, s)
			}
			want := n
			if tc.checkpointed {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for i := range s.shards {
					id := ""
					for k := 0; id == "" || s.shardIndex(id) != i; k++ {
						id = fmt.Sprintf("unseen-%d", k)
					}
					if err := s.Add(entity.Record{ID: id, Attrs: []entity.Attr{{Name: "title", Value: "zqxunseen" + id}}}); err != nil {
						t.Fatal(err)
					}
				}
				want += len(s.shards)
				if got := s.HeapRecords(); got != len(s.shards) {
					t.Errorf("HeapRecords = %d after the checkpoint and %d Adds, want %d", got, len(s.shards), len(s.shards))
				}
			}
			after := heapAlloc()
			perRecord := float64(after-before) / n
			t.Logf("heap retained by %d AddBatch'ed records: %.1f B/record (limit %d)", n, perRecord, tc.limit)
			if perRecord > float64(tc.limit) {
				t.Errorf("store retains %.0f B/record, want <= %d", perRecord, tc.limit)
			}
			if got := s.Stats(); got.Records != want || got.Entities != want {
				t.Errorf("records=%d entities=%d, want %d singleton entities", got.Records, got.Entities, want)
			}
		})
	}
	runtime.KeepAlive(recs)
}

// scoreEveryRecord runs every stored record through a resolve's score
// stage, as a query's candidates reach it: decoded from its shard
// (shard.decode), then extracted and scored by planFresh, in groups of
// MaxCandidates. Blocking is left out: 32 000 whole resolves cost
// seconds, and no query's top candidates need cover every record.
func scoreEveryRecord(t *testing.T, s *Store) {
	t.Helper()
	q := benchCorpusRecords(t, 2)[0]
	q.ID = "probe"
	qext := features.ExtractText(q.Serialize())
	n := 0
	for _, sh := range s.shards {
		for pos := 0; pos < sh.ix.Len(); pos += s.opts.MaxCandidates {
			var cands []scored
			var fresh []int
			for p := pos; p < min(pos+s.opts.MaxCandidates, sh.ix.Len()); p++ {
				cands = append(cands, scored{sh: sh, pos: p})
				sh.decode(&cands[len(cands)-1])
				fresh = append(fresh, len(fresh))
			}
			n += len(s.planFresh(q, qext, cands, fresh).decisions)
		}
	}
	if n != s.Len() {
		t.Fatalf("scored %d candidates, want every stored record (%d)", n, s.Len())
	}
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

// TestGraphHeapPerID folds 12 000 resolves into the entity graph the
// way emserve hands them over and holds what the graph retains per ID
// under heapPerGraphID. A query's ID is a substring of its ~160-byte
// record string, as emserve's request parser builds a record, and the
// string is dropped once the resolve is folded; a candidate ID is a
// fresh string. 10 000 queries match one of 8 000 candidates and 2 000
// match none: 20 000 IDs in 10 000 entities, about fresh's mix.
func TestGraphHeapPerID(t *testing.T) {
	const queries, matched, candidates = 12000, 10000, 8000
	s := New(benchClient{}, Options{})
	defer s.Close()
	pad := strings.Repeat(" sony dsc-w830 20.1 mp digital camera silver", 4)
	before := heapAlloc()
	for i := 0; i < queries; i++ {
		body := fmt.Sprintf("q%07d title%s", i, pad)[:160]
		res := &Result{Query: entity.Record{ID: body[:8]}}
		if i < matched {
			res.Decisions = []PairDecision{{CandidateID: fmt.Sprintf("offer-%06d", i%candidates), Match: true}}
		}
		s.applyResolve(res, nil, true)
	}
	after := heapAlloc()
	ids := s.GraphIDs()
	if ids != queries+candidates {
		t.Fatalf("GraphIDs = %d, want %d", ids, queries+candidates)
	}
	if got := s.Stats().Entities; got != queries+candidates-matched {
		t.Errorf("Entities = %d, want %d", got, queries+candidates-matched)
	}
	perID := float64(after-before) / float64(ids)
	t.Logf("heap retained by %d graph IDs: %.1f B/ID (limit %d)", ids, perID, heapPerGraphID)
	if perID > heapPerGraphID {
		t.Errorf("the entity graph retains %.1f B/ID, want <= %d", perID, heapPerGraphID)
	}
}

// TestFirstResolveAllocatesOneAccumulator holds a resolve's blocking
// state to one score accumulator: on an 8-shard store of the
// benchmark's 32 000 records, the first resolve after two GCs, which
// empty every pool, allocates one accumulator sized to the largest
// shard (12 B a record plus an eighth of headroom) and the rest of the
// resolve within firstResolveSlack. A scratch pooled per shard would
// allocate eight accumulators there.
func TestFirstResolveAllocatesOneAccumulator(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race, so each shard's query may draw a new scratch")
	}
	const n = 32000
	recs := benchCorpusRecords(t, n)
	s := New(benchClient{}, Options{})
	defer s.Close()
	if err := s.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != 8 {
		t.Fatalf("%d shards, want 8", len(s.shards))
	}
	largest := 0
	for _, sh := range s.shards {
		largest = max(largest, sh.ix.Len())
	}
	q := recs[0]
	q.ID = "probe"
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.Resolve(q); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	accumulator := uint64(largest+largest/8) * 12
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("first resolve allocated %d B; one accumulator over the largest shard (%d records) is %d B", alloc, largest, accumulator)
	if limit := accumulator + firstResolveSlack; alloc > limit {
		t.Errorf("first resolve allocated %d B, want <= %d: one accumulator of %d B plus %d B", alloc, limit, accumulator, firstResolveSlack)
	}
}
