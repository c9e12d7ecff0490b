package resolve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"llm4em/internal/blocking"
	"llm4em/internal/entity"
	"llm4em/internal/features"
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
	if ps.MappedShards != DefaultShards {
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

// dirFiles reads every regular file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.Type().IsRegular() {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
	}
	return files
}

// TestMappedDamageFailsOpen: the index files are the only place the
// stored records live, so a committed one that is truncated, of another
// format version, missing, or whose token table points outside its
// sections fails Open with the typed error naming the file — and leaves
// every byte of the directory as it was, for a restore or a build that
// reads it.
func TestMappedDamageFailsOpen(t *testing.T) {
	const end = 8 + 32 + 8*16 // the header bytes the CRC covers
	damage := map[string]struct {
		want error
		do   func(t *testing.T, path string, b []byte) []byte
	}{
		"truncated": {blocking.ErrSnapshotTorn, func(t *testing.T, _ string, b []byte) []byte { return b[:64] }},
		"version-bump": {blocking.ErrSnapshotVersion, func(t *testing.T, _ string, b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 999)
			binary.LittleEndian.PutUint32(b[end:], crc32.ChecksumIEEE(b[:end]))
			return b
		}},
		"missing": {fs.ErrNotExist, func(t *testing.T, path string, _ []byte) []byte {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		"token-table-out-of-range": {blocking.ErrSnapshotTorn, func(t *testing.T, _ string, b []byte) []byte {
			tokenTable := binary.LittleEndian.Uint64(b[40:]) // section 0's offset
			binary.LittleEndian.PutUint64(b[tokenTable:], 1<<60)
			return b
		}},
	}
	for name, tc := range damage {
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
			file := persist.IndexFileName(1, 0)
			path := filepath.Join(dir, file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if b = tc.do(t, path, b); b != nil {
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)

			_, err = Open(&countingClient{}, Options{PersistDir: dir})
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), file) {
				t.Fatalf("Open = %v, want %v naming %s", err, tc.want, file)
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Error("a refused Open changed the directory")
			}
		})
	}
}

// TestCheckpointIndexWriteFails: a checkpoint whose index write fails
// fails as a whole and leaves the directory as it found it — the
// decisions since the last one stay in wal.log — while the store keeps
// serving; once the obstruction is gone, the closing checkpoint commits
// a store a reopen finds equal.
func TestCheckpointIndexWriteFails(t *testing.T) {
	seed, queries := widgetRecords(16)
	dir := t.TempDir()
	opts := Options{Shards: 2, Cascade: noCascade()}
	s, _ := mustOpen(t, dir, opts)
	resolveAll := func(qs []entity.Record) {
		t.Helper()
		for _, q := range qs {
			if _, err := s.Resolve(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.AddBatch(seed[:8]); err != nil {
		t.Fatal(err)
	}
	resolveAll(queries[:2])
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(seed[8:]); err != nil {
		t.Fatal(err)
	}
	resolveAll(queries[2:4])
	// os.Create of shard 1's temporary file fails on a directory, and one
	// that is not empty survives the checkpoint's sweep.
	block := filepath.Join(dir, persist.IndexFileName(2, 1)+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(block, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("a checkpoint whose index write failed succeeded")
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("a failed checkpoint changed the directory")
	}
	resolveAll(queries[4:])
	if err := s.Add(rec("late", "alpha beta added after the failure")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	want := stateOf(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, opts)
	defer b.Close()
	if got := stateOf(b); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened state differs:\ngot  %+v\nwant %+v", got, want)
	}
	if b.Len() != len(seed)+1 || b.Stats().Persist.MappedShards != 2 {
		t.Errorf("reopen: %d records, %d mapped shards, want %d and 2", b.Len(), b.Stats().Persist.MappedShards, len(seed)+1)
	}
	checkJournalClosure(t, dir, b)
}

// TestCheckpointSweepsStrayFiles: what a crash during an index write
// leaves — shard files of an uncommitted epoch and a temporary file — is
// gone after the next checkpoint, which leaves only its own generation.
func TestCheckpointSweepsStrayFiles(t *testing.T) {
	seed, _ := widgetRecords(8)
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Shards: 2})
	defer s.Close()
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // commits epoch 1
		t.Fatal(err)
	}
	// Epoch 2's write crashed between the renames of shards 0 and 1.
	for _, name := range []string{persist.IndexFileName(2, 0), persist.IndexFileName(2, 1) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range dirFiles(t, dir) {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{persist.IndexFileName(3, 0), persist.IndexFileName(3, 1), persist.JournalFile, persist.SnapshotFile, persist.WALFile}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the checkpoint = %v, want %v", got, want)
	}
}

// TestCheckpointDirSyncFails: a directory that cannot be opened for the
// fsync after a rename — fd exhaustion, permissions as here, or a
// platform that cannot flush a directory — does not fail the
// checkpoint. The renames have committed, and a failed checkpoint would
// sweep the index generation the new snapshot.json names.
func TestCheckpointDirSyncFails(t *testing.T) {
	seed, queries := widgetRecords(8)
	dir := t.TempDir()
	t.Cleanup(func() { os.Chmod(dir, 0o700) }) // before TempDir's removal
	s, _ := mustOpen(t, dir, Options{Shards: 2, Cascade: noCascade()})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(queries[0]); err != nil {
		t.Fatal(err)
	}
	// Write and search but no read: files are created and renamed, the
	// directory itself does not open.
	if err := os.Chmod(dir, 0o300); err != nil {
		t.Fatal(err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Close()
		s.Close()
		t.Skip("directory permissions are not enforced here")
	}
	err := s.Checkpoint()
	if cerr := os.Chmod(dir, 0o700); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("Checkpoint with an unopenable directory: %v", err)
	}
	if got := s.Stats().Persist.IndexEpoch; got != 1 {
		t.Fatalf("committed index epoch %d, want 1", got)
	}
	want := stateOf(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, Options{Shards: 2, Cascade: noCascade()})
	defer b.Close()
	if got := stateOf(b); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened state differs:\ngot  %+v\nwant %+v", got, want)
	}
	if b.Len() != len(seed) || b.Stats().Persist.MappedShards != 2 {
		t.Errorf("reopen: %d records, %d mapped shards, want %d and 2", b.Len(), b.Stats().Persist.MappedShards, len(seed))
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
	if ps.MappedShards != 0 {
		t.Fatalf("reshard persist stats: %+v, want a rebuilt (not mapped) store", ps)
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

// prefillExtractions is the oracle of the one extraction path: every
// stored record's extraction filled up front, as an ingest-time
// extraction would leave it.
func prefillExtractions(s *Store) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for pos, e := range sh.ext {
			if e.IsZero() {
				sh.ext[pos] = features.Pack(features.ExtractText(sh.ix.Record(pos).Serialize()))
				sh.cached++
			}
		}
		sh.mu.Unlock()
	}
}

// candidateRecords returns the distinct stored records the queries'
// resolves score, which are the records they extract: per query, the
// global top MaxCandidates of every shard's blocking candidates (score
// descending, ties by ID), the query itself left out. It is for a
// store without a journal, where no candidate is a journal hit. Call it
// with no resolve in flight.
func candidateRecords(s *Store, queries []entity.Record) map[string]bool {
	type cand struct {
		id    string
		score float64
	}
	ids := map[string]bool{}
	minScore := s.opts.Blocking.EffectiveMinScore()
	for _, q := range queries {
		words := features.ExtractText(q.Serialize()).WordTokens
		var cs []cand
		for _, sh := range s.shards {
			for _, c := range sh.ix.QueryTokens(words, s.opts.MaxCandidates, minScore) {
				if id := sh.ix.RecordID(c.Pos); id != q.ID {
					cs = append(cs, cand{id, c.Score})
				}
			}
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].score != cs[j].score {
				return cs[i].score > cs[j].score
			}
			return cs[i].id < cs[j].id
		})
		for _, c := range cs[:min(len(cs), s.opts.MaxCandidates)] {
			ids[c.id] = true
		}
	}
	return ids
}

// extractionSlots copies every shard's extraction slots.
func extractionSlots(s *Store) [][]features.Packed {
	out := make([][]features.Packed, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = append([]features.Packed(nil), sh.ext...)
		sh.mu.RUnlock()
	}
	return out
}

// TestLazyExtractionMatchesPrefilled pins the one extraction path: a
// store that extracts a record the first time a resolve scores it
// decides and groups exactly like one whose every record was extracted
// up front, and extracts once each record a resolve scored: the merged
// top-K candidates, not every shard's. At two candidates a resolve the
// shards bring up more records than the merge keeps.
func TestLazyExtractionMatchesPrefilled(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"top-2", Options{MaxCandidates: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed, queries := wdcStoreRecords(t, 30)
			oracle := New(&countingClient{}, tc.opts)
			lazy := New(&countingClient{}, tc.opts)
			for _, s := range []*Store{oracle, lazy} {
				if err := s.AddBatch(seed); err != nil {
					t.Fatal(err)
				}
			}
			prefillExtractions(oracle)
			if got := lazy.Stats().Extractions; got != 0 {
				t.Fatalf("%d extractions after ingest, want 0", got)
			}
			for _, q := range queries {
				a, err := oracle.Resolve(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := lazy.Resolve(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Decisions, b.Decisions) {
					t.Fatalf("query %s: lazy decisions differ\ngot  %+v\nwant %+v", q.ID, b.Decisions, a.Decisions)
				}
			}
			if !reflect.DeepEqual(oracle.Snapshot(), lazy.Snapshot()) {
				t.Error("lazily extracting store groups records differently")
			}
			touched := candidateRecords(lazy, queries)
			if got := lazy.Stats().Extractions; got != len(touched) || got == 0 {
				t.Fatalf("%d extractions, want one per scored candidate record (%d)", got, len(touched))
			}
			// A second pass finds every extraction in place: none is redone.
			before := extractionSlots(lazy)
			for _, q := range queries {
				if _, err := lazy.Resolve(q); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(extractionSlots(lazy), before) || lazy.Stats().Extractions != len(touched) {
				t.Error("re-resolving replaced a cached extraction")
			}
		})
	}
}

// TestLazyExtractionConcurrent: resolves racing on records that have
// not been extracted yet converge on one extraction per record, and
// decide as a serial run does. Run it under -race.
func TestLazyExtractionConcurrent(t *testing.T) {
	const goroutines = 8
	seed, queries := wdcStoreRecords(t, 40)
	serial := New(&countingClient{}, Options{})
	conc := New(&countingClient{}, Options{})
	for _, s := range []*Store{serial, conc} {
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]PairDecision{}
	for _, q := range queries {
		res, err := serial.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q.ID] = stripReplay(res.Decisions)
	}

	got := make([]map[string][]PairDecision, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = map[string][]PairDecision{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine resolves every query, each from its own
			// starting point, so first candidacies overlap.
			for i := range queries {
				q := queries[(i+g*len(queries)/goroutines)%len(queries)]
				res, err := conc.Resolve(q)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][q.ID] = stripReplay(res.Decisions)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d: concurrent decisions differ from the serial run", g)
		}
	}
	if !reflect.DeepEqual(conc.Snapshot(), serial.Snapshot()) {
		t.Error("concurrent store groups records differently")
	}
	touched := candidateRecords(conc, queries)
	if got := conc.Stats().Extractions; got != len(touched) {
		t.Errorf("%d extractions, want one per candidate record (%d)", got, len(touched))
	}
}

// TestDeferExtractionPersistent: extraction on a record's first scoring
// survives a checkpoint + mapped reopen, where every mapped record
// starts unextracted. Journal hits extract nothing; the same queries
// under new IDs extract and decide as before the reopen.
func TestDeferExtractionPersistent(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 15)
	dir := t.TempDir()
	a, _ := mustOpen(t, dir, Options{})
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
	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	if got := b.Stats().Extractions; got != 0 {
		t.Fatalf("%d extractions after a mapped reopen, want 0", got)
	}
	for _, q := range queries {
		res, err := b.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripReplay(res.Decisions), stripReplay(control[q.ID].Decisions)) {
			t.Fatalf("query %s: decisions differ after a mapped reopen", q.ID)
		}
	}
	if got := b.Stats().Extractions; got != 0 {
		t.Fatalf("%d extractions after journal-hit resolves, want 0", got)
	}
	for _, q := range queries {
		want := control[q.ID]
		q.ID += "-again"
		res, err := b.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripReplay(res.Decisions), stripReplay(want.Decisions)) {
			t.Fatalf("query %s: decisions differ after a mapped reopen", q.ID)
		}
	}
	if b.Stats().Extractions == 0 {
		t.Fatal("no extraction after resolving new queries on a mapped reopen")
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
