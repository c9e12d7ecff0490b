package resolve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"llm4em/internal/blocking"
	"llm4em/internal/entity"
	"llm4em/internal/persist"
	"llm4em/internal/tokenize"
)

// TestMappedRestart is the acceptance test of the mmap restart path: a
// checkpointed store reopens by mapping its per-shard index snapshots
// — every shard mapped, zero LLM calls — and then behaves exactly like
// the store it was: same records, same groups, same resolve decisions,
// and it keeps growing (with duplicate detection against the mapped
// base).
func TestMappedRestart(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 40)
	dir := t.TempDir()

	a, _ := mustOpen(t, dir, Options{})
	if err := a.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	results := map[string]Result{}
	for _, q := range queries {
		res, err := a.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		results[q.ID] = res
	}
	preSnap := a.Snapshot()
	preStats := a.Stats()
	if err := a.Close(); err != nil { // final checkpoint writes the emx generation
		t.Fatal(err)
	}

	b, client := mustOpen(t, dir, Options{})
	defer b.Close()
	ps := b.Stats().Persist
	if ps.MappedShards != DefaultShards || ps.MappedFallback {
		t.Fatalf("mapped recovery stats: %+v, want %d mapped shards", ps, DefaultShards)
	}
	if got := client.calls.Load(); got != 0 {
		t.Fatalf("mapped recovery made %d LLM calls, want 0", got)
	}
	if b.Len() != len(seed) {
		t.Fatalf("mapped Len = %d, want %d", b.Len(), len(seed))
	}
	if !reflect.DeepEqual(b.Snapshot(), preSnap) {
		t.Errorf("mapped snapshot differs from pre-close:\ngot  %v\nwant %v", b.Snapshot(), preSnap)
	}
	if got, want := persistedStats(b.Stats()), persistedStats(preStats); !reflect.DeepEqual(got, want) {
		t.Errorf("mapped stats differ:\ngot  %+v\nwant %+v", got, want)
	}
	for _, r := range seed {
		got, ok := b.Record(r.ID)
		if !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("mapped Record(%q) = %+v,%v, want the seed record", r.ID, got, ok)
		}
	}
	// Re-resolving against the mapped base answers from the journal
	// with the same decisions — blocking over mmap'ed postings included.
	for _, q := range queries {
		res, err := b.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		orig := results[q.ID]
		if !reflect.DeepEqual(stripReplay(res.Decisions), stripReplay(orig.Decisions)) {
			t.Errorf("query %s: mapped decisions differ\ngot  %+v\nwant %+v", q.ID, res.Decisions, orig.Decisions)
		}
	}
	if got := client.calls.Load(); got != 0 {
		t.Fatalf("journaled re-resolves made %d LLM calls, want 0", got)
	}

	// The mapped store keeps growing: duplicates of mapped records are
	// rejected, new records index into the overlay and resolve.
	if err := b.Add(seed[0]); err == nil {
		t.Error("Add accepted a duplicate of a mapped record")
	}
	if err := b.Add(rec("post-open", "freshly added record")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Record("post-open"); !ok {
		t.Error("post-open record not found")
	}
	if b.Len() != len(seed)+1 {
		t.Errorf("Len after post-open Add = %d, want %d", b.Len(), len(seed)+1)
	}
}

// TestMappedCheckpointCycles pins that checkpoint generations chain: a
// mapped store that grows and checkpoints again writes a new epoch,
// cleans the old one up, and reopens from the merged state.
func TestMappedCheckpointCycles(t *testing.T) {
	seed, _ := wdcStoreRecords(t, 12)
	dir := t.TempDir()

	a, _ := mustOpen(t, dir, Options{})
	if err := a.AddBatch(seed[:6]); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, _ := mustOpen(t, dir, Options{})
	if got := b.Stats().Persist.MappedShards; got != DefaultShards {
		t.Fatalf("first reopen mapped %d shards, want %d", got, DefaultShards)
	}
	if err := b.AddBatch(seed[6:]); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	c, _ := mustOpen(t, dir, Options{})
	defer c.Close()
	ps := c.Stats().Persist
	if ps.MappedShards != DefaultShards || ps.IndexEpoch != 2 {
		t.Fatalf("second reopen persist stats: %+v, want epoch 2 fully mapped", ps)
	}
	if c.Len() != len(seed) {
		t.Fatalf("Len after two checkpoint cycles = %d, want %d", c.Len(), len(seed))
	}
	for _, r := range seed {
		if _, ok := c.Record(r.ID); !ok {
			t.Fatalf("record %q lost across checkpoint cycles", r.ID)
		}
	}
	// Exactly one emx generation remains on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "index-*.emx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != DefaultShards {
		t.Fatalf("%d emx files on disk after cleanup, want %d: %v", len(matches), DefaultShards, matches)
	}
	for i := 0; i < DefaultShards; i++ {
		p := filepath.Join(dir, persist.IndexFileName(2, i))
		if _, err := os.Stat(p); err != nil {
			t.Errorf("epoch-2 shard file missing: %v", err)
		}
	}
}

// TestMappedTornFallsBack pins satellite robustness: damaged index
// snapshots — truncated, or written by a future format version — never
// fail Open. Recovery flags the fallback, keeps the JSON snapshot and
// WAL contents, and the store serves and grows normally.
func TestMappedTornFallsBack(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 64); err != nil {
				t.Fatal(err)
			}
		},
		"version-bump": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip the 64-bit version and fix the header CRC up, so only
			// the typed version check can object.
			binary.LittleEndian.PutUint64(b[8:], 999)
			end := 8 + 32 + 8*16
			binary.LittleEndian.PutUint32(b[end:], crc32.ChecksumIEEE(b[:end]))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range damage {
		t.Run(name, func(t *testing.T) {
			seed, _ := wdcStoreRecords(t, 10)
			dir := t.TempDir()
			a, _ := mustOpen(t, dir, Options{})
			if err := a.AddBatch(seed); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			damage(t, filepath.Join(dir, persist.IndexFileName(1, 0)))

			b, _ := mustOpen(t, dir, Options{})
			defer b.Close()
			ps := b.Stats().Persist
			if !ps.MappedFallback || ps.MappedShards != 0 {
				t.Fatalf("persist stats after damage: %+v, want fallback with no mapped shards", ps)
			}
			// The mapped generation carried the records, so the degraded
			// store starts without them — but it must serve and grow
			// cleanly, and the next checkpoint re-establishes a healthy
			// generation.
			if err := b.Add(rec("after-damage", "recovered ingest path")); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			c, _ := mustOpen(t, dir, Options{})
			defer c.Close()
			if got := c.Stats().Persist.MappedShards; got != DefaultShards {
				t.Fatalf("re-checkpointed store mapped %d shards, want %d", got, DefaultShards)
			}
			if _, ok := c.Record("after-damage"); !ok {
				t.Error("record added after the damage did not survive the next cycle")
			}
		})
	}
}

// TestMappedReshard: reopening with a different shard count cannot use
// the per-shard maps — recovery re-inserts every mapped record under
// the new routing and the store is fully equivalent.
func TestMappedReshard(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 20)
	dir := t.TempDir()
	a, _ := mustOpen(t, dir, Options{})
	if err := a.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, client := mustOpen(t, dir, Options{Shards: 3})
	defer b.Close()
	ps := b.Stats().Persist
	if ps.MappedShards != 0 || ps.MappedFallback {
		t.Fatalf("reshard persist stats: %+v, want a rebuilt (not mapped, not fallback) store", ps)
	}
	if b.Len() != len(seed) {
		t.Fatalf("resharded Len = %d, want %d", b.Len(), len(seed))
	}
	for _, r := range seed {
		if got, ok := b.Record(r.ID); !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("resharded Record(%q) = %+v,%v", r.ID, got, ok)
		}
	}
	if got := client.calls.Load(); got != 0 {
		t.Fatalf("reshard made %d LLM calls, want 0", got)
	}
	for _, q := range queries[:5] {
		if _, err := b.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeferExtraction pins the deferred-extraction ingest mode:
// resolve results are identical to the eager store's, and the lazily
// materialized extractions are cached after the first touch.
func TestDeferExtraction(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 30)

	eager := New(&countingClient{}, Options{})
	deferred := New(&countingClient{}, Options{DeferExtraction: true})
	if err := eager.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if err := deferred.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		a, err := eager.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := deferred.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Decisions, b.Decisions) {
			t.Fatalf("query %s: deferred decisions differ\ngot  %+v\nwant %+v", q.ID, b.Decisions, a.Decisions)
		}
	}
	if !reflect.DeepEqual(eager.Snapshot(), deferred.Snapshot()) {
		t.Error("deferred-extraction store groups records differently")
	}
	// Candidates touched above now have cached extractions.
	cached := 0
	for _, sh := range deferred.shards {
		sh.mu.RLock()
		for _, e := range sh.ext {
			if e != nil {
				cached++
			}
		}
		sh.mu.RUnlock()
	}
	if cached == 0 {
		t.Error("no extraction was cached by the lazy fill")
	}
}

// TestDeferExtractionPersistent: the deferred mode survives a
// checkpoint + mapped reopen (which defers every mapped record's
// extraction regardless of the option).
func TestDeferExtractionPersistent(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 15)
	dir := t.TempDir()
	a, _ := mustOpen(t, dir, Options{DeferExtraction: true})
	if err := a.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	control := map[string]Result{}
	for _, q := range queries {
		res, err := a.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		control[q.ID] = res
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, Options{DeferExtraction: true})
	defer b.Close()
	for _, q := range queries {
		res, err := b.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripReplay(res.Decisions), stripReplay(control[q.ID].Decisions)) {
			t.Fatalf("query %s: decisions differ after deferred recovery", q.ID)
		}
	}
}

// TestBlockingOptionsPrecedence pins the Options.Blocking wiring: the
// store takes its score floor and its shard indexes' stop-token
// fraction from the one options value — defaults for the zero value,
// blocking.Float(0) a literal zero — and resolves neither itself.
func TestBlockingOptionsPrecedence(t *testing.T) {
	// Six records share "sharedtok" (a stop token at any fraction below
	// 1) and each owns a rare token whose IDF is log(1+6/1) ≈ 1.95.
	var recs []entity.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, entity.Record{ID: fmt.Sprintf("r%d", i),
			Attrs: []entity.Attr{{Name: "title", Value: fmt.Sprintf("sharedtok rare%d", i)}}})
	}
	cases := []struct {
		name       string
		blocking   blocking.IndexOptions
		query      string
		candidates int
	}{
		{"defaults-rare-token-passes", blocking.IndexOptions{}, "rare3", 1},
		{"defaults-stop-token-skipped", blocking.IndexOptions{}, "sharedtok", 0},
		{"stop-filter-off-floor-zero", blocking.IndexOptions{MinScore: blocking.Float(0), StopDocFrac: blocking.Float(1)}, "sharedtok", 6},
		{"stop-filter-off-default-floor", blocking.IndexOptions{StopDocFrac: blocking.Float(1)}, "sharedtok", 0},
		{"high-floor", blocking.IndexOptions{MinScore: blocking.Float(2.5)}, "rare3", 0},
	}
	for _, tc := range cases {
		s := New(benchClient{}, Options{Shards: 1, Blocking: tc.blocking})
		if err := s.AddBatch(recs); err != nil {
			t.Fatal(err)
		}
		got := s.blockCandidates("q", tokenize.Words(tc.query))
		if len(got) != tc.candidates {
			t.Errorf("%s: %d candidates for %q, want %d", tc.name, len(got), tc.query, tc.candidates)
		}
	}
}

// TestMappedFallbackQuarantine pins the degraded-open housekeeping: a
// generation this build cannot read is never garbage-collected (a
// correctly-versioned binary may still recover it), and the next
// checkpoint commits a fresh epoch number instead of renaming new
// shard files over the one snapshot.json still references.
func TestMappedFallbackQuarantine(t *testing.T) {
	seed, _ := wdcStoreRecords(t, 10)
	dir := t.TempDir()
	a, _ := mustOpen(t, dir, Options{})
	if err := a.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // commits epoch 1
		t.Fatal(err)
	}
	// Bump the format version of one epoch-1 shard (CRC fixed up) so
	// only the typed version check rejects it — the version-skew shape
	// of fallback, where the bytes are valuable to another binary.
	path := filepath.Join(dir, persist.IndexFileName(1, 0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(raw[8:], 999)
	end := 8 + 32 + 8*16
	binary.LittleEndian.PutUint32(raw[end:], crc32.ChecksumIEEE(raw[:end]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b, _ := mustOpen(t, dir, Options{})
	if !b.Stats().Persist.MappedFallback {
		t.Fatal("damaged generation did not trigger fallback")
	}
	if err := b.Add(rec("post-fallback", "added while degraded")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // checkpoints a fresh generation
		t.Fatal(err)
	}

	// Every epoch-1 file survives, untouched where damaged.
	for i := 0; i < DefaultShards; i++ {
		if _, err := os.Stat(filepath.Join(dir, persist.IndexFileName(1, i))); err != nil {
			t.Errorf("quarantined epoch-1 shard %d missing: %v", i, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil || !reflect.DeepEqual(got, raw) {
		t.Errorf("quarantined shard file was rewritten (err=%v)", err)
	}

	// The committed binding moved past the unreadable epoch.
	snap, ok, err := persist.ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ReadSnapshot: ok=%v err=%v", ok, err)
	}
	if snap.IndexShards == 0 || snap.IndexEpoch <= 1 {
		t.Fatalf("post-fallback checkpoint bound epoch %d over %d shards, want a fresh epoch > 1",
			snap.IndexEpoch, snap.IndexShards)
	}

	// And the fresh generation serves: fully mapped, record intact.
	c, _ := mustOpen(t, dir, Options{})
	defer c.Close()
	ps := c.Stats().Persist
	if ps.MappedShards != DefaultShards || ps.MappedFallback {
		t.Fatalf("reopen after quarantine: %+v, want %d mapped shards", ps, DefaultShards)
	}
	if _, ok := c.Record("post-fallback"); !ok {
		t.Error("record added while degraded did not survive")
	}
}
