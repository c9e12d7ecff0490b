package resolve

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/datasets"
	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/telemetry"
)

// benchClient answers instantly and deterministically, so the
// benchmark measures store overhead rather than simulated latency.
type benchClient struct{}

func (benchClient) Name() string { return "bench" }
func (benchClient) Chat(messages []llm.Message) (llm.Response, error) {
	return llm.Response{Content: "No.", PromptTokens: 80, CompletionTokens: 2}, nil
}

// benchStore seeds a store with n synthetic offers and returns query
// variants of them (same offer, slightly reworded).
func benchStore(b *testing.B, n int) (*Store, []entity.Record) {
	return benchStoreOpts(b, n, Options{})
}

func benchStoreOpts(b *testing.B, n int, opts Options) (*Store, []entity.Record) {
	b.Helper()
	brands := []string{"sony", "canon", "epson", "makita"}
	cats := []string{"camera", "printer", "drill", "laptop"}
	rng := detrand.New("resolve-bench")
	s, err := Open(benchClient{}, opts)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]entity.Record, 0, n)
	for i := 0; i < n; i++ {
		brand := brands[rng.Intn(len(brands))]
		cat := cats[rng.Intn(len(cats))]
		title := fmt.Sprintf("%s %s model%04d", brand, cat, i)
		if err := s.Add(entity.Record{
			ID:    fmt.Sprintf("s%05d", i),
			Attrs: []entity.Attr{{Name: "title", Value: title}},
		}); err != nil {
			b.Fatal(err)
		}
		queries = append(queries, entity.Record{
			ID:    fmt.Sprintf("q%05d", i),
			Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("%s %s digital model%04d", brand, cat, i)}},
		})
	}
	return s, queries
}

// BenchmarkStoreResolve measures sequential resolve throughput
// against a 10k-record store.
func BenchmarkStoreResolve(b *testing.B) { benchmarkStoreResolve(b, 10000) }

// BenchmarkStoreResolve100k is the same workload at 100k records,
// probing how blocking scales with the collection.
func BenchmarkStoreResolve100k(b *testing.B) { benchmarkStoreResolve(b, 100000) }

// BenchmarkStoreResolveTelemetry is BenchmarkStoreResolve with the
// full telemetry subsystem enabled — stage timers, counters and
// histograms live on the hot path. The regression gate compares it
// against the same baseline as the uninstrumented benchmark, so the
// instrumentation cost must stay inside the normal slack.
func BenchmarkStoreResolveTelemetry(b *testing.B) {
	tel := telemetry.New(telemetry.Options{})
	s, queries := benchStoreOpts(b, 10000, Options{Telemetry: tel})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		q.ID = fmt.Sprintf("%s-%d", q.ID, i)
		if _, err := s.Resolve(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreResolveMapped is BenchmarkStoreResolve on a persistent
// store after a Checkpoint, whose shards serve the EMIX files it wrote:
// blocking walks mapped postings and candidates decode from the file.
// BenchmarkStoreResolvePersistent is the same store before the
// checkpoint, every record on the heap.
func BenchmarkStoreResolveMapped(b *testing.B)     { benchmarkStoreResolvePersistent(b, true) }
func BenchmarkStoreResolvePersistent(b *testing.B) { benchmarkStoreResolvePersistent(b, false) }

func benchmarkStoreResolvePersistent(b *testing.B, checkpoint bool) {
	s, queries := benchStoreOpts(b, 10000, Options{PersistDir: b.TempDir(), SnapshotEvery: -1})
	defer s.Close()
	if checkpoint {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	benchResolves(b, s, queries)
}

func benchmarkStoreResolve(b *testing.B, n int) {
	s, queries := benchStore(b, n)
	benchResolves(b, s, queries)
}

// benchResolves resolves a fresh variant of a query per iteration.
func benchResolves(b *testing.B, s *Store, queries []entity.Record) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		q.ID = fmt.Sprintf("%s-%d", q.ID, i) // fresh graph node per call
		if _, err := s.Resolve(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.Candidates > 0 {
		b.ReportMetric(float64(st.LLMPairs)/float64(st.Resolves), "llm-pairs/resolve")
		b.ReportMetric(100*st.LocalFraction(), "%local")
	}
}

// BenchmarkStoreResolveParallel measures concurrent resolve
// throughput: the serving-path hot loop with per-shard read locks.
func BenchmarkStoreResolveParallel(b *testing.B) {
	s, queries := benchStore(b, 10000)
	var ctr int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := atomic.AddInt64(&ctr, 1)
			q := queries[int(n)%len(queries)]
			q.ID = fmt.Sprintf("%s-p%d", q.ID, n)
			if _, err := s.Resolve(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreResolveDispatch measures concurrent resolve
// throughput when every query carries one uncertain pair — the
// LLM-bound serving path — with the micro-batching dispatcher
// coalescing pairs across the concurrent resolvers. The client
// charges a small fixed latency per round-trip, modelling a hosted
// LLM; the client-calls/pair metric is the dispatcher's saving.
func BenchmarkStoreResolveDispatch(b *testing.B) { benchmarkDispatch(b, 16) }

// BenchmarkStoreResolveDispatchOff is the same workload with one
// round-trip per uncertain pair — the comparison baseline recorded in
// BENCH_dispatch.json.
func BenchmarkStoreResolveDispatchOff(b *testing.B) { benchmarkDispatch(b, 0) }

func benchmarkDispatch(b *testing.B, dispatchPairs int) {
	seed, queries := dispatchWorkload(b, 64)
	client := &batchConsistentClient{latency: 200 * time.Microsecond}
	// Caching off so escalations are not answered by a warming cache.
	// The queries wrap around as b.N grows and the dispatcher's
	// single-flight can coalesce overlapping repeats of the same pair
	// — an economy the unbatched path (no coalescing with the cache
	// off) cannot match — so the round-trip metric below divides by
	// the pairs that actually consumed a batch seat or their own
	// call, keeping the two variants comparable.
	disablePromptCache(b)
	s := New(client, Options{DispatchPairs: dispatchPairs})
	if err := s.AddBatch(seed); err != nil {
		b.Fatal(err)
	}
	var ctr int64
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := atomic.AddInt64(&ctr, 1)
			q := queries[int(n)%len(queries)]
			q.ID = fmt.Sprintf("%s-d%d", q.ID, n)
			if _, err := s.Resolve(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	routed := st.Dispatch.BatchedPairs + st.Dispatch.SinglePairCalls + st.Dispatch.FallbackPairs
	coalesced := st.Dispatch.SingleFlightHits + st.Dispatch.CacheHits
	b.ReportMetric(float64(coalesced)/float64(st.LLMPairs), "coalesced/pair")
	if routed > 0 {
		b.ReportMetric(float64(st.Engine.ClientCalls)/float64(routed), "client-calls/pair")
	}
	if st.Dispatch.Batches > 0 {
		b.ReportMetric(st.Dispatch.MeanBatchSize(), "pairs/batch")
	}
	s.Close()
}

// BenchmarkStoreAdd measures incremental ingestion: serialize and
// index, with feature extraction left to the first resolve that scores
// the record.
func BenchmarkStoreAdd(b *testing.B) {
	s := New(benchClient{}, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(entity.Record{
			ID:    fmt.Sprintf("a%08d", i),
			Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("sony camera model%08d", i)}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPersistentStore builds benchStore's records on a persistence
// directory with the given number of decisions already in journal.log
// (growJournal's synthetic ones: the journal and the groups grow while
// records and totals stay put) and checkpoints it.
func benchPersistentStore(b *testing.B, records, journal int) (*Store, Options) {
	b.Helper()
	mem, _ := benchStore(b, records)
	recs := make([]entity.Record, 0, records)
	for _, sh := range mem.shards {
		for pos := 0; pos < sh.ix.Len(); pos++ {
			recs = append(recs, sh.ix.Record(pos))
		}
	}
	opts := Options{PersistDir: b.TempDir(), SnapshotEvery: -1}
	s, err := Open(benchClient{}, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AddBatch(recs); err != nil {
		b.Fatal(err)
	}
	growJournal(s, "old", journal)
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return s, opts
}

// BenchmarkStoreCheckpoint measures a checkpoint carrying the same
// delta — a hundred fresh decisions — over the same 10k-record store
// with 10k and with 100k decisions journaled before. The regression
// gate holds the second to 1.5x the first: a checkpoint costs what
// happened since the last one, whatever the journal's size.
func BenchmarkStoreCheckpoint(b *testing.B) {
	for _, journal := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("journal=%dk", journal/1000), func(b *testing.B) {
			s, _ := benchPersistentStore(b, 10000, journal)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				growJournal(s, fmt.Sprintf("new%d", i), 100)
				b.StartTimer()
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.Stats().Persist.JournalBytes)/float64(journal+100*b.N), "journal-B/decision")
		})
	}
}

// BenchmarkStoreOpen measures resolve.Open — snapshot, journal.log,
// mapped index shards, WAL — on a checkpointed store: the store-level
// restart figure. journal= grows the journal under 10k records;
// records= grows the records under an empty journal and no resolves,
// and the regression gate holds 100k records to a small multiple of
// 10k: no record is walked at open (what still grows is the mapped
// vocabulary each shard sweeps).
func BenchmarkStoreOpen(b *testing.B) {
	for _, size := range []struct {
		name             string
		records, journal int
	}{
		{"journal=10k", 10000, 10000},
		{"journal=100k", 10000, 100000},
		{"records=10k", 10000, 0},
		{"records=100k", 100000, 0},
	} {
		b.Run(size.name, func(b *testing.B) {
			s, opts := benchPersistentStore(b, size.records, size.journal)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				again, err := Open(benchClient{}, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if st := again.Stats(); st.Persist.JournalSize != uint64(size.journal) || st.Records != size.records {
					b.Fatalf("reopened with %d records and %d journaled decisions, want %d and %d",
						st.Records, st.Persist.JournalSize, size.records, size.journal)
				}
				if err := again.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkStoreBulkLoad measures the preload of a benchmark set-up:
// 32 000 WDC offers (the B sides of datasets.GroupedPairs) added to an
// empty persistent store in AddBatch calls of 200, with the default
// SnapshotEvery, so the load pays the checkpoints it fires. Opening
// and closing the store are not timed.
func BenchmarkStoreBulkLoad(b *testing.B) {
	pairs, err := datasets.GroupedPairs("wdc", "1", 16000, 2)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]entity.Record, len(pairs))
	for i, p := range pairs {
		recs[i] = p.B
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		s, err := Open(benchClient{}, Options{PersistDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for batch := range slices.Chunk(recs, 200) {
			if err := s.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
