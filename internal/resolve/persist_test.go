package resolve

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"llm4em/internal/blocking"
	"llm4em/internal/entity"
	"llm4em/internal/persist"
	"llm4em/internal/pipeline"
)

// mustOpen opens a persistent store over a fresh counting client.
func mustOpen(t *testing.T, dir string, opts Options) (*Store, *countingClient) {
	t.Helper()
	client := &countingClient{}
	opts.PersistDir = dir
	s, err := Open(client, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, client
}

// journaled is one committed journal.log decision beside its query.
type journaled struct {
	query string
	persist.DecisionEntry
}

// committedJournal reads the decisions dir's snapshot commits out of
// journal.log, in append order: a later entry of a pair supersedes an
// earlier one.
func committedJournal(t *testing.T, dir string) []journaled {
	t.Helper()
	snap, ok, err := persist.ReadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("ReadSnapshot: ok=%v err=%v", ok, err)
	}
	jl, rec, err := persist.OpenLog(persist.OS, filepath.Join(dir, persist.JournalFile), snap.JournalBytes)
	if err != nil {
		t.Fatalf("open journal.log: %v", err)
	}
	jl.Close()
	var out []journaled
	for _, e := range rec.Entries {
		q, ds, err := persist.DecodeJournal(e.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			out = append(out, journaled{q, d})
		}
	}
	return out
}

// checkJournalClosure checks the invariant the store owes its users
// against the directory alone: the groups of more than one member that
// s — a store just opened on dir — reports are exactly the transitive
// closure of the matches dir's committed journal holds, non-deferred, a
// later frame of a pair superseding an earlier one.
func checkJournalClosure(t *testing.T, dir string, s *Store) {
	t.Helper()
	var got [][]string
	for _, g := range s.Snapshot() {
		if len(g) > 1 {
			got = append(got, g)
		}
	}
	final := map[pairID]persist.DecisionEntry{}
	for _, d := range committedJournal(t, dir) {
		final[pairID{query: d.query, candidate: d.CandidateID}] = d.DecisionEntry
	}
	uf := blocking.NewUnionFind()
	for pair, d := range final {
		if d.Match && !d.Deferred {
			uf.Union(pair.query, pair.candidate)
		}
	}
	if want := uf.Groups(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Errorf("groups are not the closure of the journaled matches:\ngroups:  %v\nclosure: %v", got, want)
	}
}

// persistedStats strips the process-lifetime parts of Stats — engine
// counters, durability bookkeeping and the extractions this process
// happens to hold (a mapped restart extracts lazily) — leaving exactly
// the state recovery must reproduce.
func persistedStats(st Stats) Stats {
	st.Engine = pipeline.Stats{}
	st.Persist = PersistStats{}
	st.Extractions = 0
	return st
}

// stripReplay normalizes the flags that legitimately differ between
// an original decision and its journal replay.
func stripReplay(ds []PairDecision) []PairDecision {
	out := make([]PairDecision, len(ds))
	copy(out, ds)
	for i := range out {
		out[i].Cached = false
		out[i].Journaled = false
	}
	return out
}

func TestOpenWithoutDirIsInMemory(t *testing.T) {
	client := &countingClient{}
	s, err := Open(client, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec("r1", "sony camera")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Persist.Enabled {
		t.Error("in-memory store reports persistence enabled")
	}
	// The persistence API degrades to no-ops.
	if err := s.Checkpoint(); err != nil {
		t.Errorf("Checkpoint: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestCrashRecovery is the acceptance test of the durability layer: a
// store is killed mid-workload (abandoned without Close, so no final
// snapshot or flush runs), reopened from its directory, and must
// match both its own pre-crash state and a never-crashed in-memory
// run — without a single LLM call during recovery.
func TestCrashRecovery(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 40)
	dir := t.TempDir()

	// Never-crashed control run, purely in memory.
	control := New(&countingClient{}, Options{})
	if err := control.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := control.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}

	// The crashing run: same workload, persistent.
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
	// SIGKILL equivalent: the store is abandoned here — no Close, no
	// Checkpoint, no Flush.

	b, client := mustOpen(t, dir, Options{})
	if got := client.calls.Load(); got != 0 {
		t.Fatalf("recovery made %d LLM calls, want 0", got)
	}
	if !reflect.DeepEqual(b.Snapshot(), preSnap) {
		t.Errorf("recovered snapshot differs from pre-crash:\ngot  %v\nwant %v", b.Snapshot(), preSnap)
	}
	if !reflect.DeepEqual(b.Snapshot(), control.Snapshot()) {
		t.Errorf("recovered snapshot differs from never-crashed run:\ngot  %v\nwant %v", b.Snapshot(), control.Snapshot())
	}
	if got, want := persistedStats(b.Stats()), persistedStats(preStats); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered stats differ:\ngot  %+v\nwant %+v", got, want)
	}
	ps := b.Stats().Persist
	if !ps.Enabled || ps.RecoveredRecords != len(seed) || ps.RecoveredResolves != uint64(len(queries)) {
		t.Errorf("persist stats after recovery: %+v", ps)
	}

	// Re-resolving the same queries is answered from the decision
	// journal: identical decisions and groups, zero LLM calls.
	for _, q := range queries {
		res, err := b.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		orig := results[q.ID]
		if !reflect.DeepEqual(stripReplay(res.Decisions), stripReplay(orig.Decisions)) {
			t.Errorf("query %s: replayed decisions differ\ngot  %+v\nwant %+v",
				q.ID, res.Decisions, orig.Decisions)
		}
		// Members are not compared: the recovered graph already holds
		// every query's merges, while the original saw only the folds
		// up to its own call. The final groups are compared below.
		if res.Cost.LLMPairs != 0 || res.Cost.JournalHits != res.Cost.Candidates {
			t.Errorf("query %s: re-resolve cost %+v, want all journal hits", q.ID, res.Cost)
		}
		for _, d := range res.Decisions {
			if !d.Journaled {
				t.Errorf("query %s: pair %s not journaled on re-resolve", q.ID, d.CandidateID)
			}
		}
	}
	if got := client.calls.Load(); got != 0 {
		t.Fatalf("journaled re-resolves made %d LLM calls, want 0", got)
	}
	if !reflect.DeepEqual(b.Snapshot(), preSnap) {
		t.Error("re-resolving journaled queries changed the entity groups")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPlusTailReplay covers recovery ordering: state must be
// snapshot first, then the WAL tail on top.
func TestSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.AddBatch([]entity.Record{
		rec("r1", "sony dsc120b cybershot camera silver"),
		rec("r2", "makita impact drill kit 18v"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail after the snapshot: one more record and one more resolve.
	if err := s.Add(rec("r3", "epson workforce 845 printer")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(rec("q2", "epson workforce 845 printer")); err != nil {
		t.Fatal(err)
	}
	preSnap := s.Snapshot()
	preStats := s.Stats()
	// Crash: no Close.

	b, client := mustOpen(t, dir, Options{})
	defer b.Close()
	if client.calls.Load() != 0 {
		t.Error("recovery made LLM calls")
	}
	if b.Len() != 3 {
		t.Errorf("recovered %d records, want 3", b.Len())
	}
	if !reflect.DeepEqual(b.Snapshot(), preSnap) {
		t.Errorf("snapshot+tail recovery:\ngot  %v\nwant %v", b.Snapshot(), preSnap)
	}
	if got, want := persistedStats(b.Stats()), persistedStats(preStats); !reflect.DeepEqual(got, want) {
		t.Errorf("stats after snapshot+tail recovery:\ngot  %+v\nwant %+v", got, want)
	}
	ps := b.Stats().Persist
	if ps.Snapshots != 0 { // snapshots counts this process's compactions
		t.Errorf("Snapshots = %d on a fresh handle", ps.Snapshots)
	}
}

// TestDuplicateRecordReplay pins the idempotency contract: a crash
// between snapshot rename and WAL reset leaves record entries in the
// log that the snapshot already contains, and replay must skip them
// silently — the ErrDuplicateID path is for callers, not recovery.
func TestDuplicateRecordReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	r1 := rec("r1", "sony dsc120b cybershot camera silver")
	if err := s.AddBatch([]entity.Record{r1, rec("r2", "makita impact drill kit 18v")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // r1, r2 now live in the snapshot
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: re-append r1 to the (reset) WAL as if
	// the snapshot rename landed but the log reset did not.
	w, _, err := persist.OpenWAL(filepath.Join(dir, persist.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := persist.EncodeRecord(r1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(persist.EntryRecord, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	if b.Len() != 2 {
		t.Fatalf("duplicate replay yielded %d records, want 2", b.Len())
	}
	if got, _ := b.Record("r1"); !reflect.DeepEqual(got, r1) {
		t.Errorf("r1 after duplicate replay = %+v", got)
	}
	// The caller-facing duplicate path is intact.
	if err := b.Add(r1); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("Add(r1) after recovery: %v, want ErrDuplicateID", err)
	}
}

// TestTruncatedTailRecovery tears the WAL mid-entry and expects
// recovery to keep everything before the tear and report it.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.AddBatch([]entity.Record{
		rec("r1", "sony dsc120b cybershot camera silver"),
		rec("r2", "makita impact drill kit 18v"),
	}); err != nil {
		t.Fatal(err)
	}
	// Crash, then tear the tail: half an entry header.
	f, err := os.OpenFile(filepath.Join(dir, persist.WALFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{byte(persist.EntryRecord), 0x42}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	if b.Len() != 2 {
		t.Errorf("recovered %d records, want 2", b.Len())
	}
	if ps := b.Stats().Persist; !ps.TruncatedTail {
		t.Errorf("TruncatedTail not reported: %+v", ps)
	}
}

// TestSnapshotCadence drives enough appends through a small
// SnapshotEvery to trigger automatic compaction.
func TestSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{SnapshotEvery: 3, SyncEvery: 1})
	for _, r := range []entity.Record{
		rec("r1", "sony dsc120b cybershot camera silver"),
		rec("r2", "makita impact drill kit 18v"),
		rec("r3", "epson workforce 845 printer"),
		rec("r4", "canon powershot sx620 camera black"),
	} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	ps := s.Stats().Persist
	if ps.Snapshots == 0 {
		t.Fatalf("no automatic snapshot after %d appends with SnapshotEvery=3: %+v", 4, ps)
	}
	if _, ok, err := persist.ReadSnapshot(dir); err != nil || !ok {
		t.Fatalf("snapshot file missing after cadence compaction: ok=%v err=%v", ok, err)
	}
	// A batch is one WAL write and runs the cadence once, after it: one
	// append is in the log since the snapshot, seven more cross it.
	_, batch := widgetRecords(14)
	if err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ps := s.Stats().Persist; ps.Snapshots != 2 || ps.WALBytes != 0 {
		t.Errorf("after a 7-record batch: %d snapshots, %d WAL bytes, want 2 and an empty log", ps.Snapshots, ps.WALBytes)
	}
	// Crash and recover: cadence snapshots alone must carry the state.
	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	if b.Len() != 11 {
		t.Errorf("recovered %d records, want 11", b.Len())
	}
}

// TestConcurrentPersistentResolves drives a persistent store with
// parallel resolves (plus a snapshot cadence small enough to compact
// mid-flight) and expects recovery to equal a sequential in-memory
// run — the WAL commit path must be linearizable with compaction.
func TestConcurrentPersistentResolves(t *testing.T) {
	seed, queries := wdcStoreRecords(t, 40)
	dir := t.TempDir()

	control := New(&countingClient{}, Options{})
	if err := control.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := control.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}

	s, _ := mustOpen(t, dir, Options{SnapshotEvery: 16})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, len(queries))
	for _, q := range queries {
		go func(q entity.Record) {
			_, err := s.Resolve(q)
			done <- err
		}(q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	preSnap := s.Snapshot()
	// Crash: no Close.

	b, client := mustOpen(t, dir, Options{})
	defer b.Close()
	if client.calls.Load() != 0 {
		t.Error("recovery made LLM calls")
	}
	if !reflect.DeepEqual(b.Snapshot(), preSnap) {
		t.Errorf("concurrent persistent recovery differs from pre-crash state")
	}
	if !reflect.DeepEqual(b.Snapshot(), control.Snapshot()) {
		t.Errorf("concurrent persistent recovery differs from sequential in-memory run")
	}
}

// TestJournalKeysWithSeparatorIDs pins that caller-supplied IDs
// containing the '|' separator survive the snapshot round trip: the
// journal is keyed structurally, so "a|b" vs "c" can never collide
// with "a" vs "b|c" and serve the wrong pair's decision.
func TestJournalKeysWithSeparatorIDs(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	title := "sony dsc120b cybershot camera silver"
	if err := s.Add(rec("r|1", title)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resolve(rec("q|1", title))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() {
		t.Fatalf("pipe-ID pair did not match: %+v", res)
	}
	if err := s.Checkpoint(); err != nil { // force the snapshot round trip
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	res2, err := b.Resolve(rec("q|1", title))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Decisions) != 1 || !res2.Decisions[0].Journaled || res2.Decisions[0].CandidateID != "r|1" {
		t.Errorf("recovered journal decision = %+v, want journaled hit on r|1", res2.Decisions)
	}
	if ent, ok := b.Entity("q|1"); !ok || len(ent) != 2 {
		t.Errorf("Entity(q|1) after recovery = %v %v", ent, ok)
	}
}

// TestFlushAndClosedStore covers the explicit fsync path and the
// failure mode of mutating a store whose WAL is closed.
func TestFlushAndClosedStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Add(rec("r1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Error("Flush on a closed store succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint on a closed store succeeded")
	}
	if _, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver")); err == nil {
		t.Error("Resolve on a closed store succeeded")
	}
}

// TestOpenErrors covers the failure modes of opening a persistence
// directory.
func TestOpenErrors(t *testing.T) {
	// The directory path is an existing file.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(&countingClient{}, Options{PersistDir: file}); err == nil {
		t.Error("Open over a plain file succeeded")
	}
	// A corrupt snapshot fails loudly instead of replaying garbage.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, persist.SnapshotFile), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(&countingClient{}, Options{PersistDir: dir}); err == nil {
		t.Error("Open with a corrupt snapshot succeeded")
	}
}

// TestCloseIsFinal pins clean-shutdown semantics: Close snapshots
// everything, a reopened store starts from the snapshot alone, and
// mutating a closed store fails loudly.
func TestCloseIsFinal(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Add(rec("r1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(rec("q1", "sony dsc120b cybershot camera silver")); err != nil {
		t.Fatal(err)
	}
	preSnap := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // second close is a no-op
		t.Errorf("second Close: %v", err)
	}
	if err := s.Add(rec("r2", "too late")); err == nil {
		t.Error("Add on a closed store succeeded")
	}

	b, _ := mustOpen(t, dir, Options{})
	defer b.Close()
	if !reflect.DeepEqual(b.Snapshot(), preSnap) {
		t.Errorf("post-close recovery differs:\ngot  %v\nwant %v", b.Snapshot(), preSnap)
	}
	if ps := b.Stats().Persist; ps.RecoveredRecords != 1 || ps.RecoveredResolves != 1 {
		t.Errorf("persist stats after clean shutdown: %+v", ps)
	}
}
