package blocking

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"llm4em/internal/tokenize"
)

// TestIndex10M is the 10M-record scale measurement behind
// BENCH_index10m.json: opt-in (BENCH_INDEX10M=1) because building ten
// million synthetic records takes minutes and gigabytes of heap. It
// builds the index at scale, writes the mmap snapshot, and pins the two
// headline claims:
//
//   - the postings take at most half the bytes of raw int32 positions
//     (4 B a posting, by arithmetic — no second index is built);
//   - OpenMapped serves the 10M-record snapshot in under 100ms
//     (no ingest replay, no record decode — the instant-restart path).
//
// Run with:
//
//	BENCH_INDEX10M=1 go test -run TestIndex10M -v -timeout 30m ./internal/blocking/
func TestIndex10M(t *testing.T) {
	if os.Getenv("BENCH_INDEX10M") == "" {
		t.Skip("set BENCH_INDEX10M=1 to run the 10M-record scale measurement")
	}
	const n = 10_000_000
	records := syntheticRecords(n)

	start := time.Now()
	ix := BuildIndex(records, IndexOptions{})
	t.Logf("build: %v", time.Since(start).Round(time.Millisecond))
	compressedBytes := ix.PostingsBytes()
	t.Logf("postings: %d bytes, %.2f B/record", compressedBytes, float64(compressedBytes)/n)
	rawBytes := rawPostingsBytes(ix)
	t.Logf("raw int32 postings would take %d bytes, %.2f B/record (reduction %.2fx)",
		rawBytes, float64(rawBytes)/n, float64(rawBytes)/float64(compressedBytes))
	if compressedBytes*2 > rawBytes {
		t.Errorf("compressed postings %d bytes, want <= half of raw %d", compressedBytes, rawBytes)
	}

	// Query latency at scale (same query set as the 100k benchmark: 2
	// scoring postings a query, scored by the dense scan over a
	// 10M-entry accumulator).
	queries := make([][]string, 256)
	for i := range queries {
		queries[i] = tokenize.Words(records[(i*37)%n].Serialize())
	}
	measure := func(ix *Index) time.Duration {
		const rounds = 20000
		start := time.Now()
		for i := 0; i < rounds; i++ {
			_ = ix.QueryTokens(queries[i%len(queries)], 10, 1.0)
		}
		return time.Since(start) / rounds
	}
	t.Logf("query: %v/op", measure(ix))

	path := filepath.Join(t.TempDir(), "10m.emx")
	start = time.Now()
	if err := ix.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	t.Logf("snapshot write: %v, %d bytes (%.1f B/record)",
		time.Since(start).Round(time.Millisecond), st.Size(), float64(st.Size())/n)

	// The restart claim: opening the snapshot must not scale with n.
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start = time.Now()
		m, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		if m.Len() != n {
			t.Fatalf("mapped Len = %d, want %d", m.Len(), n)
		}
		m.Close()
	}
	t.Logf("OpenMapped: %v (best of 5)", best)
	if best > 100*time.Millisecond {
		t.Errorf("OpenMapped took %v, want < 100ms", best)
	}

	// A mapped index serves queries straight off the page cache.
	m, err := OpenMapped(path, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	t.Logf("query mapped: %v/op", measure(m))
}
