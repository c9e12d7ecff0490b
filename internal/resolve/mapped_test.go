package resolve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llm4em/internal/blocking"
	"llm4em/internal/chaos"
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
	if ps.MappedShards != defaultShards {
		t.Fatalf("mapped recovery stats: %+v, want %d mapped shards", ps, defaultShards)
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
	if got := b.Stats().Persist.MappedShards; got != defaultShards {
		t.Fatalf("first reopen mapped %d shards, want %d", got, defaultShards)
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
	if ps.MappedShards != defaultShards || ps.IndexEpoch != 2 {
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
	if len(matches) != defaultShards {
		t.Fatalf("%d emx files on disk after cleanup, want %d: %v", len(matches), defaultShards, matches)
	}
	for i := 0; i < defaultShards; i++ {
		p := filepath.Join(dir, persist.IndexFileName(2, i))
		if _, err := os.Stat(p); err != nil {
			t.Errorf("epoch-2 shard file missing: %v", err)
		}
	}
}

// syncHookFS is the real filesystem with a hook on journal.log's
// fsync: the checkpoint step that runs after every shard's index file
// is written and before snapshot.json commits them.
type syncHookFS struct {
	persist.FS
	onJournalSync func()
}

func (fs *syncHookFS) OpenFile(path string) (persist.File, error) {
	f, err := persist.OS.OpenFile(path)
	if err != nil || filepath.Base(path) != persist.JournalFile {
		return f, err
	}
	return hookedFile{f, fs}, nil
}

type hookedFile struct {
	persist.File
	fs *syncHookFS
}

func (f hookedFile) Sync() error {
	if h := f.fs.onJournalSync; h != nil {
		f.fs.onJournalSync = nil
		h()
	}
	return f.File.Sync()
}

// TestCheckpointServesMapped is the differential test of the swap: a
// store whose checkpoints make each shard serve the EMIX file it just
// wrote holds every stored ID at the same position, returns the same
// records, and blocks and decides a query set exactly like a store
// that never checkpointed — records that reach a shard between its
// write and the swap included, and across a second
// checkpoint over an already-swapped base.
func TestCheckpointServesMapped(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 120)
	if len(seed) < 100 || len(queries) < 60 {
		t.Fatalf("corpus too small: %d records, %d queries", len(seed), len(queries))
	}
	hook := &syncHookFS{FS: persist.OS}
	got, _ := mustOpen(t, t.TempDir(), Options{SnapshotEvery: -1, FS: hook})
	defer got.Close()
	want, _ := mustOpen(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer want.Close()
	var stored []entity.Record

	add := func(rs []entity.Record) {
		t.Helper()
		for _, s := range []*Store{got, want} {
			if err := s.AddBatch(rs); err != nil {
				t.Fatal(err)
			}
		}
		stored = append(stored, rs...)
	}
	resolve := func(qs []entity.Record) {
		t.Helper()
		for _, q := range qs {
			g, err := got.Resolve(q)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Resolve(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Decisions, w.Decisions) || !reflect.DeepEqual(g.Members, w.Members) {
				t.Fatalf("resolve %s:\ngot  %+v %v\nwant %+v %v", q.ID, g.Decisions, g.Members, w.Decisions, w.Members)
			}
		}
	}
	// checkpoint checkpoints got while late records reach its shards
	// after their index writes, then adds them to want too.
	checkpoint := func(late []entity.Record) {
		t.Helper()
		target := got.Len() + len(late)
		done := make(chan error, 1)
		hook.onJournalSync = func() {
			// The Add blocks on persistMu after inserting; wait for the
			// inserts only.
			go func() { done <- got.AddBatch(late) }()
			for got.Len() < target {
				runtime.Gosched()
			}
		}
		if err := got.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if hook.onJournalSync != nil {
			t.Fatal("the checkpoint never synced journal.log")
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := want.AddBatch(late); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, late...)
		if h := got.HeapRecords(); h != len(late) {
			t.Fatalf("HeapRecords = %d after the checkpoint, want the %d late records", h, len(late))
		}
	}
	compare := func(when string) {
		t.Helper()
		for _, r := range stored {
			gs, ws := got.shardFor(r.ID), want.shardFor(r.ID)
			gs.mu.RLock()
			gp, gok := gs.ix.RecordPos(r.ID)
			gs.mu.RUnlock()
			ws.mu.RLock()
			wp, wok := ws.ix.RecordPos(r.ID)
			ws.mu.RUnlock()
			if !gok || !wok || gp != wp {
				t.Fatalf("%s: position of %q = %d,%v, want %d,%v", when, r.ID, gp, gok, wp, wok)
			}
			if rec, ok := got.Record(r.ID); !ok || !reflect.DeepEqual(rec, r) {
				t.Fatalf("%s: Record(%q) = %+v,%v, want %+v", when, r.ID, rec, ok, r)
			}
		}
		for _, q := range queries {
			words := tokenize.Words(q.Serialize())
			g, w := got.blockCandidates(q.ID, words), want.blockCandidates(q.ID, words)
			if len(g) != len(w) {
				t.Fatalf("%s: query %s: %d candidates, want %d", when, q.ID, len(g), len(w))
			}
			for i := range g {
				if !reflect.DeepEqual(g[i].rec, w[i].rec) || g[i].score != w[i].score || g[i].pos != w[i].pos {
					t.Fatalf("%s: query %s candidate %d = %+v, want %+v", when, q.ID, i, g[i], w[i])
				}
			}
		}
	}

	add(seed[:50])
	resolve(queries[:20])
	compare("before the first checkpoint")
	checkpoint(seed[50:60])
	compare("after the first swap")
	resolve(queries[20:40])
	add(seed[60:90])
	resolve(queries[40:50])
	checkpoint(seed[90:100])
	compare("after the second swap")
	resolve(queries)
	add(seed[100:])
	resolve(queries[50:])
	compare("after growing the swapped base")
}

// TestCheckpointKeepsShardOnHeap: a shard whose freshly written index
// file fails to open stays on the heap and keeps serving its records,
// the other shards swap, and the next checkpoint writes the shard out
// from the heap.
func TestCheckpointKeepsShardOnHeap(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 40)
	dir := t.TempDir()
	hook := &syncHookFS{FS: persist.OS}
	s, _ := mustOpen(t, dir, Options{SnapshotEvery: -1, FS: hook})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(queries[0]); err != nil { // journals, so the checkpoint syncs journal.log
		t.Fatal(err)
	}
	hook.onJournalSync = func() {
		if err := os.WriteFile(filepath.Join(dir, persist.IndexFileName(1, 0)), []byte("torn"), 0o644); err != nil {
			t.Error(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.HeapRecords(), s.shards[0].ix.Len(); got != want || want == 0 {
		t.Fatalf("HeapRecords = %d after shard 0's swap failed, want its %d records", got, want)
	}
	for _, r := range seed {
		if got, ok := s.Record(r.ID); !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("Record(%q) = %+v,%v after the checkpoint", r.ID, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	if b.Len() != len(seed) || b.Stats().Persist.MappedShards != defaultShards {
		t.Fatalf("reopen: Len %d, %d mapped shards, want %d and %d", b.Len(), b.Stats().Persist.MappedShards, len(seed), defaultShards)
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
			binary.LittleEndian.PutUint64(b[8:], 1) // the format before names and 16-byte token entries
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
			tokenTable := binary.LittleEndian.Uint64(b[40:])     // section 0's offset
			binary.LittleEndian.PutUint32(b[tokenTable:], 1<<31) // token 0's postings offset
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
// a store a reopen finds equal. The shard files are written
// concurrently, and a middle one of eight fails: its siblings finish
// their files before the failure is cleaned up.
func TestCheckpointIndexWriteFails(t *testing.T) {
	seed, queries := widgetRecords(16)
	dir := t.TempDir()
	withShards(t, 8)
	// Creating shard 4's temporary file of epoch 2 fails while blocked.
	var blocked atomic.Bool
	block := filepath.Join(dir, persist.IndexFileName(2, 4)+".tmp")
	fsys := chaos.WrapFS(persist.OS, chaos.FSOptions{Fail: func(op chaos.Op, path string) error {
		if op == chaos.OpCreate && path == block && blocked.Load() {
			return errors.New("injected create failure")
		}
		return nil
	}})
	opts := Options{Cascade: noCascade(), FS: fsys}
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
	blocked.Store(true)
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
	blocked.Store(false)
	want := stateOf(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, opts)
	defer b.Close()
	if got := stateOf(b); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened state differs:\ngot  %+v\nwant %+v", got, want)
	}
	if b.Len() != len(seed)+1 || b.Stats().Persist.MappedShards != 8 {
		t.Errorf("reopen: %d records, %d mapped shards, want %d and 8", b.Len(), b.Stats().Persist.MappedShards, len(seed)+1)
	}
	checkJournalClosure(t, dir, b)
}

// TestCheckpointConcurrentWriters: checkpoints fire every 50 appends
// while four goroutines add batches and resolve queries, so each
// checkpoint writes the eight shard files concurrently beside Adds
// that wait on single shards and resolves that read them all. A reopen
// holds every acknowledged record, and its groups are the closure of
// the journaled matches.
func TestCheckpointConcurrentWriters(t *testing.T) {
	withShards(t, 8)
	dir := t.TempDir()
	opts := Options{Cascade: noCascade(), SnapshotEvery: 50}
	s, _ := mustOpen(t, dir, opts)
	const writers, rounds, batch = 4, 12, 5
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				recs := make([]entity.Record, batch)
				for k := range recs {
					marker := "sameent"
					if k%2 == 1 {
						marker = "other"
					}
					recs[k] = rec(fmt.Sprintf("w%d-%d-%d", w, r, k), fmt.Sprintf("alpha beta %s%d%02d widget%d", marker, w, r, k))
				}
				if err := s.AddBatch(recs); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				for _, r := range recs {
					acked[w] = append(acked[w], r.ID)
				}
				q := rec(fmt.Sprintf("q%d-%d", w, r), fmt.Sprintf("alpha beta sameent%d%02d widget0", w, r))
				if _, err := s.ResolveContext(context.Background(), q); err != nil {
					t.Errorf("writer %d: resolve %s: %v", w, q.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := s.Stats().Persist.Snapshots; n < 3 {
		t.Fatalf("%d checkpoints fired, want at least 3", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, opts)
	defer b.Close()
	for _, ids := range acked {
		for _, id := range ids {
			if _, ok := b.Record(id); !ok {
				t.Errorf("acknowledged record %s is missing after reopen", id)
			}
		}
	}
	if want := writers * rounds * batch; b.Len() != want {
		t.Errorf("reopen holds %d records, want %d", b.Len(), want)
	}
	checkJournalClosure(t, dir, b)
}

// TestCheckpointDirSyncFails: a directory that cannot be synced after
// a rename — fd exhaustion, permissions, or a platform that cannot
// flush a directory — does not fail the checkpoint. The renames have
// committed, and a failed checkpoint would sweep the index generation
// the new snapshot.json names.
func TestCheckpointDirSyncFails(t *testing.T) {
	seed, queries := widgetRecords(8)
	dir := t.TempDir()
	withShards(t, 2)
	var failing atomic.Bool
	var failed atomic.Int64
	fsys := chaos.WrapFS(persist.OS, chaos.FSOptions{Fail: func(op chaos.Op, _ string) error {
		if op == chaos.OpSyncDir && failing.Load() {
			failed.Add(1)
			return errors.New("injected directory sync failure")
		}
		return nil
	}})
	s, _ := mustOpen(t, dir, Options{Cascade: noCascade(), FS: fsys})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(queries[0]); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	err := s.Checkpoint()
	failing.Store(false)
	if err != nil {
		t.Fatalf("Checkpoint with a failing directory sync: %v", err)
	}
	if n := failed.Load(); n == 0 {
		t.Fatal("the checkpoint synced no directory")
	}
	if got := s.Stats().Persist.IndexEpoch; got != 1 {
		t.Fatalf("committed index epoch %d, want 1", got)
	}
	want := stateOf(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, dir, Options{Cascade: noCascade()})
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

	withShards(t, 3)
	b, client := mustOpen(t, dir, Options{})
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

// TestConcurrentResolveMatchesSerial: resolves racing over the same
// candidates, each extracting them into its own pooled scratch, decide
// and group exactly as a serial run does. The racing store serves its
// records from index files, mapped after a checkpoint and reopen, and
// each query resolves once per goroutine, so most resolves replay the
// journal beside fresh ones. Run it under -race.
func TestConcurrentResolveMatchesSerial(t *testing.T) {
	const goroutines = 8
	seed, queries := wdcStoreRecords(t, 40)
	serial := New(&countingClient{}, Options{})
	if err := serial.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, _ := mustOpen(t, dir, Options{})
	if err := a.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	conc, _ := mustOpen(t, dir, Options{})
	defer conc.Close()
	if h := conc.HeapRecords(); h != 0 {
		t.Fatalf("HeapRecords = %d after a mapped reopen, want 0", h)
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
			// starting point, so candidates overlap across resolves.
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
}
