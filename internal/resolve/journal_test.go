package resolve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"llm4em/internal/chaos"
	"llm4em/internal/clock"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
)

// durableState is everything a reopen must reproduce: entity groups,
// the decision journal, the lifetime totals and the deferred queue.
type durableState struct {
	Groups   [][]string
	Journal  map[pairID]persist.DecisionEntry
	Totals   Stats
	Deferred []persist.DeferredEntry
}

func stateOf(s *Store) durableState {
	st := persistedStats(s.Stats())
	st.Resilience = ResilienceStats{} // breaker state is process-local
	ds := durableState{Groups: s.Snapshot(), Journal: journalMap(s), Totals: st}
	if s.res != nil {
		s.res.mu.Lock()
		ds.Deferred = append(ds.Deferred, s.res.queue...)
		s.res.mu.Unlock()
		sort.Slice(ds.Deferred, func(i, j int) bool {
			a, b := ds.Deferred[i], ds.Deferred[j]
			return a.Query.ID+"|"+a.CandidateID < b.Query.ID+"|"+b.CandidateID
		})
	}
	return ds
}

// journalMap decodes the store's whole decision journal into the map
// it replaced: every journaled pair's newest decision.
func journalMap(s *Store) map[pairID]persist.DecisionEntry {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	m := map[pairID]persist.DecisionEntry{}
	for q := range s.journal.newest {
		var frames [][]persist.DecisionEntry // newest first
		if err := s.journal.each(q, func(ds []persist.DecisionEntry) bool {
			frames = append(frames, ds)
			return true
		}); err != nil {
			panic(err)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			for _, d := range frames[i] {
				m[pairID{query: q, candidate: d.CandidateID}] = d
			}
		}
	}
	return m
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !f.IsDir() {
			copyFile(t, filepath.Join(from, f.Name()), filepath.Join(to, f.Name()))
		}
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// widgetRecords builds n stored records in pairs sharing a rare token
// — odd ones the countingClient matches, even ones it rejects — and
// one query per pair, so every resolve journals a match and a
// non-match through the LLM path.
func widgetRecords(n int) (seed, queries []entity.Record) {
	for i := 1; i <= n; i++ {
		marker := "sameent"
		if i%2 == 0 {
			marker = "other"
		}
		seed = append(seed, rec(fmt.Sprintf("r%d", i), fmt.Sprintf("alpha beta %s%04d widget%02d", marker, i, (i+1)/2)))
		if i%2 == 1 {
			queries = append(queries, rec(fmt.Sprintf("q%d", (i+1)/2), fmt.Sprintf("alpha beta sameent%04d widget%02d", i, (i+1)/2)))
		}
	}
	return seed, queries
}

// TestCheckpointCrashWindows covers the damage a journal.log can take
// beyond what a crash leaves (TestCheckpointCrashSweep enumerates
// those): bytes beyond the committed length must heal — every reopen
// equals the uncrashed store in groups, journal, totals and deferred
// queue, and stays equal through a healing checkpoint — and damage
// inside it must fail with the typed error.
//
// The script: three healthy resolves, checkpoint one; two resolves
// deferred by an outage and re-decided after it, one more deferred
// and still queued; checkpoint two. `before` is the directory as
// checkpoint two found it, `after` as it left it.
func TestCheckpointCrashWindows(t *testing.T) {
	withShards(t, 2)
	clk := new(clock.Manual)
	opts := Options{Cascade: noCascade(), Resilience: resilientOptions(clk)}
	seed, queries := widgetRecords(12)
	live, before, after := t.TempDir(), t.TempDir(), t.TempDir()
	client := &outageClient{}
	opts.PersistDir = live
	a, err := Open(client, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	resolveAll := func(qs []entity.Record) {
		t.Helper()
		for _, q := range qs {
			if _, err := a.Resolve(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	resolveAll(queries[:3])
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	client.down.Store(true)
	resolveAll(queries[3:5])
	client.down.Store(false)
	clk.Advance(time.Millisecond) // the tick past the cooldown drains the queue
	client.down.Store(true)
	resolveAll(queries[5:6]) // the clock stays put: its pairs stay deferred
	want := stateOf(a)
	if len(want.Deferred) == 0 || want.Totals.Redecided == 0 {
		t.Fatalf("script left %d deferred pairs and %d re-decisions, want both", len(want.Deferred), want.Totals.Redecided)
	}
	copyDir(t, live, before)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, live, after)
	oldSnap, _, err := persist.ReadSnapshot(before)
	if err != nil {
		t.Fatal(err)
	}
	newSnap, _, err := persist.ReadSnapshot(after)
	if err != nil {
		t.Fatal(err)
	}
	j0, j1 := oldSnap.JournalBytes, newSnap.JournalBytes
	if j0 <= 0 || j1 <= j0 {
		t.Fatalf("journal_bytes %d then %d: checkpoint two did not extend the journal", j0, j1)
	}
	journal, err := os.ReadFile(filepath.Join(after, persist.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{byte(persist.EntryJournal), 0x40, 0, 0, 0, 'x', 'y'}
	flipped := append([]byte{}, journal...)
	flipped[j0/2] ^= 0x10
	// CRC-intact frames that are no journal frames.
	frame := func(typ persist.EntryType, payload []byte) []byte {
		path := filepath.Join(t.TempDir(), "frame")
		w, _, err := persist.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(w.Append(typ, payload), w.Close()); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	foreign := frame(persist.EntryResolve, persist.JournalFrame("q", []persist.DecisionEntry{{CandidateID: "r"}}).Payload)
	undecodable := frame(persist.EntryJournal, []byte{0x01, 0xff})
	// The query ID decodes; the one decision announced, 20 bytes at the
	// least, claims a 127-byte candidate ID.
	badDecisions := frame(persist.EntryJournal, append([]byte{0x01, 0x01, 'q', 0x01, 0x7f}, make([]byte, 19)...))

	for name, tc := range map[string]struct {
		base    string // directory the damage happened in
		journal []byte // journal.log contents, when not nil
		rebind  bool   // the snapshot commits exactly journal
		torn    bool   // reopen must fail with ErrJournalTorn
	}{
		// Bytes beyond the committed length, after either snapshot.
		"torn tail beyond journal_bytes":       {base: after, journal: append(append([]byte{}, journal...), garbage...)},
		"whole frames beyond journal_bytes":    {base: after, journal: append(append([]byte{}, journal...), journal[:j0]...)},
		"torn tail beyond an old snapshot too": {base: before, journal: append(append([]byte{}, journal...), garbage...)},
		// Damage inside the committed length cannot heal: fail loudly.
		"journal shorter than journal_bytes": {base: after, journal: journal[:j1-1], torn: true},
		"journal missing":                    {base: after, journal: []byte{}, torn: true},
		"bit flip inside journal_bytes":      {base: after, journal: flipped, torn: true},
		"foreign frame inside journal_bytes": {base: after, journal: foreign, rebind: true, torn: true},
		"undecodable inside journal_bytes":   {base: after, journal: undecodable, rebind: true, torn: true},
		"bad decisions inside journal_bytes": {base: after, journal: badDecisions, rebind: true, torn: true},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tc.base, dir)
			if tc.journal != nil {
				if err := os.WriteFile(filepath.Join(dir, persist.JournalFile), tc.journal, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.rebind {
				snap, _, err := persist.ReadSnapshot(dir)
				if err != nil {
					t.Fatal(err)
				}
				snap.JournalBytes = int64(len(tc.journal))
				if err := persist.WriteSnapshot(dir, snap); err != nil {
					t.Fatal(err)
				}
			}
			o := opts
			o.PersistDir = dir
			down := &outageClient{}
			down.down.Store(true) // keeps the deferred queue where the crash left it
			b, err := Open(down, o)
			if tc.torn {
				if !errors.Is(err, persist.ErrJournalTorn) {
					t.Fatalf("Open = %v, want ErrJournalTorn", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := stateOf(b); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened state differs from the uncrashed store:\ngot  %+v\nwant %+v", got, want)
			}
			// Recovered decisions are the distinct pairs recovered, however
			// many frames and WAL entries repeat them.
			if got := b.Stats().Persist.RecoveredDecisions; got != len(want.Journal) {
				t.Errorf("RecoveredDecisions = %d, want the %d journaled pairs", got, len(want.Journal))
			}
			// A checkpoint heals the directory: the next reopen is equal
			// again and replays nothing.
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			c, err := Open(down, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := stateOf(c); !reflect.DeepEqual(got, want) {
				t.Errorf("state after the healing checkpoint differs:\ngot  %+v\nwant %+v", got, want)
			}
			if fi, err := os.Stat(filepath.Join(dir, persist.WALFile)); err != nil || fi.Size() != 0 {
				t.Errorf("wal.log after the healing checkpoint: %v, want empty", fi)
			}
			checkJournalClosure(t, dir, c)
		})
	}
}

// growJournal journals n synthetic decisions, ten to a query, and
// folds them the way a resolve does: the query joins the entity of its
// one match, its first candidate. The journal and the groups grow
// while records and totals stay put.
func growJournal(s *Store, tag string, n int) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	for q := 0; q < n/10; q++ {
		ds := make([]persist.DecisionEntry, 10)
		for k := range ds {
			ds[k] = persist.DecisionEntry{CandidateID: fmt.Sprintf("s%05d", (q*10+k)%10000), BlockScore: 7.5,
				Probability: 0.5, Match: k == 0, Method: string(MethodLLM), Answer: "No."}
		}
		s.graphMu.Lock()
		query := s.graph.Intern(fmt.Sprintf("%s-%06d", tag, q))
		s.graph.Union(query, ds[0].CandidateID)
		s.graphMu.Unlock()
		s.journalDecisions(query, ds)
	}
}

// TestCheckpointBytesIndependentOfJournal pins the O(delta) claim in
// bytes: what a checkpoint writes outside the index files —
// snapshot.json plus the journal.log extension — is the same for the
// same delta whether 1 000 or 50 000 decisions were journaled before.
func TestCheckpointBytesIndependentOfJournal(t *testing.T) {
	withShards(t, 2)
	written := func(journaled int) (snapshotBytes, journalDelta int64) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{})
		defer s.Close()
		seed, queries := widgetRecords(40)
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
		growJournal(s, "old", journaled)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		base := s.Stats().Persist.JournalBytes
		if want := int64(journaled) * 19; base < want { // a decision's least size
			t.Fatalf("journal.log is %d bytes after %d decisions, want at least %d", base, journaled, want)
		}
		for _, q := range queries {
			if _, err := s.Resolve(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, persist.SnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size(), s.Stats().Persist.JournalBytes - base
	}
	snapSmall, deltaSmall := written(1000)
	snapLarge, deltaLarge := written(50000)
	if deltaSmall <= 0 || deltaSmall != deltaLarge {
		t.Errorf("journal.log grew by %d bytes after 1k decisions and %d after 50k for the same resolves", deltaSmall, deltaLarge)
	}
	// The journal_bytes value itself is a few digits longer.
	if diff := snapLarge - snapSmall; diff < 0 || diff > 8 {
		t.Errorf("snapshot.json is %d bytes after 1k decisions, %d after 50k", snapSmall, snapLarge)
	}
}

// journalOracle rebuilds the decision journal from dir's files alone —
// the committed journal.log frames, then wal.log's resolve and redecide
// entries, a later frame of a pair superseding an earlier one — reading
// a copy, so that a live store's files are left alone.
func journalOracle(t *testing.T, dir string) map[pairID]persist.DecisionEntry {
	t.Helper()
	tmp := t.TempDir()
	copyDir(t, dir, tmp)
	snap, ok, err := persist.ReadSnapshot(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var committed int64
	if ok {
		committed = snap.JournalBytes
	}
	jl, jrec, err := persist.OpenLog(persist.OS, filepath.Join(tmp, persist.JournalFile), committed)
	if err != nil {
		t.Fatal(err)
	}
	wal, wrec, err := persist.OpenWAL(filepath.Join(tmp, persist.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(jl.Close(), wal.Close()); err != nil {
		t.Fatal(err)
	}
	m := map[pairID]persist.DecisionEntry{}
	put := func(q string, ds []persist.DecisionEntry) {
		for _, d := range ds {
			m[pairID{query: q, candidate: d.CandidateID}] = d
		}
	}
	for _, e := range jrec.Entries {
		q, ds, err := persist.DecodeJournal(e.Payload)
		if err != nil {
			t.Fatal(err)
		}
		put(q, ds)
	}
	for _, e := range wrec.Entries {
		switch e.Type {
		case persist.EntryResolve:
			rv, err := persist.DecodeResolve(e.Payload)
			if err != nil {
				t.Fatal(err)
			}
			put(rv.Query.ID, rv.Decisions)
		case persist.EntryRedecide:
			rd, err := persist.DecodeRedecide(e.Payload)
			if err != nil {
				t.Fatal(err)
			}
			put(rd.QueryID, []persist.DecisionEntry{rd.Decision})
		}
	}
	return m
}

// checkJournalIndex compares the store's journal lookup with the oracle
// rebuilt from dir: every journaled pair's decision, one never-journaled
// candidate per query and one never-journaled query, and JournalSize
// against the oracle's distinct pairs.
func checkJournalIndex(t *testing.T, s *Store, dir, when string) {
	t.Helper()
	want := journalOracle(t, dir)
	if len(want) == 0 {
		t.Fatalf("%s: the oracle holds no decision", when)
	}
	cands := map[string][]scored{}
	for k := range want {
		cands[k.query] = append(cands[k.query], scored{rec: entity.Record{ID: k.candidate}, score: float64(len(cands[k.query]) + 1)})
	}
	cands["never-journaled"] = nil
	for q, cs := range cands {
		cs = append(cs, scored{rec: entity.Record{ID: "never-journaled"}})
		got, fresh, err := s.journalLookup(q, cs)
		if err != nil {
			t.Fatalf("%s: journalLookup(%q): %v", when, q, err)
		}
		if len(fresh) != 1 || fresh[0] != len(cs)-1 {
			t.Errorf("%s: journalLookup(%q) leaves %v fresh, want only the never-journaled candidate", when, q, fresh)
		}
		for i, c := range cs[:len(cs)-1] {
			w := decisionOf(want[pairID{query: q, candidate: c.rec.ID}])
			w.BlockScore, w.Journaled = c.score, true
			if !reflect.DeepEqual(got[i], w) {
				t.Errorf("%s: journalLookup(%q) on %q = %+v, want %+v", when, q, c.rec.ID, got[i], w)
			}
		}
	}
	if got := s.Stats().Persist.JournalSize; got != uint64(len(want)) {
		t.Errorf("%s: JournalSize = %d, want the oracle's %d pairs", when, got, len(want))
	}
}

// TestJournalIndexMatchesOracle drives a store through every way a
// journal frame comes to be — a resolve, a repeat (no frame), a repeat
// with a new candidate (a second frame), a deferral and its re-decision
// (a superseding frame), a checkpoint, a WAL tail, a kill and a clean
// reopen, a crash between the snapshot rename and the WAL reset
// (duplicate frames), a failed journal.log fsync and its retry — and
// compares the frame index with the journal rebuilt from the files
// after every step. A byte flipped in a committed frame then fails that
// query's resolve, and no other.
func TestJournalIndexMatchesOracle(t *testing.T) {
	seed, queries := widgetRecords(16)
	client := &outageClient{}
	withShards(t, 2)
	clk := new(clock.Manual)
	opts := Options{SnapshotEvery: -1, Cascade: noCascade(), Resilience: resilientOptions(clk)}
	open := func(dir string, fsys persist.FS) *Store {
		t.Helper()
		o := opts
		o.PersistDir, o.FS = dir, fsys
		s, err := Open(client, o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	resolve := func(s *Store, qs ...entity.Record) []Result {
		t.Helper()
		var out []Result
		for _, q := range qs {
			res, err := s.Resolve(q)
			if err != nil {
				t.Fatalf("resolve %s: %v", q.ID, err)
			}
			out = append(out, res)
		}
		return out
	}
	closeStore := func(s *Store) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	live := t.TempDir()
	s := open(live, nil)
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	resolve(s, queries[:3]...)
	checkJournalIndex(t, s, live, "resolve")
	for _, res := range resolve(s, queries[:3]...) {
		for _, d := range res.Decisions {
			if !d.Journaled {
				t.Fatalf("re-resolve of %s decided %s afresh", res.Query.ID, d.CandidateID)
			}
		}
	}
	checkJournalIndex(t, s, live, "re-resolve")
	if err := s.Add(rec("n1", "alpha beta sameent0001 widget01 gadget")); err != nil {
		t.Fatal(err)
	}
	resolve(s, queries[0])
	if ds := journalMap(s); ds[pairID{query: "q1", candidate: "n1"}].Method == "" {
		t.Fatal("re-resolve with a new candidate journaled no decision on it")
	}
	checkJournalIndex(t, s, live, "re-resolve with a new candidate")
	client.down.Store(true)
	resolve(s, queries[3])
	client.down.Store(false)
	clk.Advance(time.Millisecond) // the tick past the cooldown drains the queue
	checkJournalIndex(t, s, live, "outage-defer and redecide")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkJournalIndex(t, s, live, "checkpoint")
	resolve(s, queries[4])
	checkJournalIndex(t, s, live, "WAL tail")

	// Kill: the directory as it is, no Close, no checkpoint.
	crashed := t.TempDir()
	copyDir(t, live, crashed)
	closeStore(s)
	s = open(crashed, nil)
	checkJournalIndex(t, s, crashed, "kill and reopen")
	closeStore(s)
	s = open(crashed, nil)
	checkJournalIndex(t, s, crashed, "close and reopen")

	// A crash after the snapshot rename, before the WAL reset: the WAL
	// replays frames journal.log already holds.
	resolve(s, queries[5])
	before := t.TempDir()
	copyDir(t, crashed, before)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dup := t.TempDir()
	copyDir(t, crashed, dup)
	copyFile(t, filepath.Join(before, persist.WALFile), filepath.Join(dup, persist.WALFile))
	closeStore(s)
	s = open(dup, nil)
	checkJournalIndex(t, s, dup, "snapshot renamed, WAL not reset")
	closeStore(s)

	// The first fsync after this open is the checkpoint's journal.log
	// sync: its frames are appended but not committed, and stay delta
	// until the retry commits them.
	s = open(dup, chaos.NewFS(chaos.FSOptions{FailSyncAt: 1}))
	resolve(s, queries[6])
	if err := s.Checkpoint(); !errors.Is(err, persist.ErrWALWrite) {
		t.Fatalf("checkpoint over a failed journal.log fsync = %v, want ErrWALWrite", err)
	}
	checkJournalIndex(t, s, dup, "failed journal.log fsync")
	resolve(s, queries[7])
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	checkJournalIndex(t, s, dup, "checkpoint retry")
	closeStore(s)

	// A byte flipped inside a committed frame after Open.
	s = open(dup, nil)
	defer s.Close()
	checkJournalIndex(t, s, dup, "reopen")
	f := s.journal.frames[s.journal.newest["q1"]]
	jf, err := os.OpenFile(filepath.Join(dup, persist.JournalFile), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := f.off + 5 + int64(f.size)/2 // inside the payload
	if _, err := jf.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := jf.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(queries[0]); !errors.Is(err, persist.ErrJournalTorn) {
		t.Errorf("resolve over a damaged frame = %v, want ErrJournalTorn", err)
	}
	for _, res := range resolve(s, queries[1:8]...) {
		if res.Cost.JournalHits != len(res.Decisions) {
			t.Errorf("resolve of %s beside the damaged frame: %d journal hits of %d decisions",
				res.Query.ID, res.Cost.JournalHits, len(res.Decisions))
		}
	}
}

// TestJournalKeepsQueriesThatResolveAlone pins the entities no match
// decision names: a query that blocks to no candidate and a stored
// record re-resolved to stay alone are entities by their journal.log
// frames alone, empty ones included, so a kill and a reopen keep them,
// and so does the first checkpoint after an upgrade from a version-2
// snapshot.json, whose groups list such a query and whose journal
// holds no frame for it (and one empty group).
func TestJournalKeepsQueriesThatResolveAlone(t *testing.T) {
	withShards(t, 2)
	seed, queries := widgetRecords(4)
	lone := rec("lone", "zyzzyva quokka")                     // blocks to no candidate
	alone := rec("r-alone", "xylophone marimba glockenspiel") // stored, and blocks to none
	check := func(when string, live, got *Store) {
		t.Helper()
		for _, id := range []string{lone.ID, alone.ID, queries[0].ID} {
			want, wok := live.Entity(id)
			if g, ok := got.Entity(id); ok != wok || !reflect.DeepEqual(g, want) {
				t.Errorf("%s: Entity(%q) = %v, %v; want %v, %v", when, id, g, ok, want, wok)
			}
		}
		if g, w := got.Snapshot(), live.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: Snapshot() = %v, want %v", when, g, w)
		}
		if g, w := got.GraphIDs(), live.GraphIDs(); g != w {
			t.Errorf("%s: GraphIDs() = %d, want %d", when, g, w)
		}
	}
	// reopen checkpoints the store, copies its directory as a kill
	// would leave it and opens the copy.
	reopen := func(s *Store) *Store {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		killed := t.TempDir()
		copyDir(t, s.opts.PersistDir, killed)
		again, _ := mustOpen(t, killed, Options{Cascade: noCascade()})
		t.Cleanup(func() { again.Close() })
		return again
	}

	dir := t.TempDir()
	live, _ := mustOpen(t, dir, Options{Cascade: noCascade(), SnapshotEvery: -1})
	defer live.Close()
	if err := live.AddBatch(append(seed, alone)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []entity.Record{lone, alone, queries[0], lone} {
		res, err := live.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if q.ID != queries[0].ID && (len(res.Decisions) != 0 || len(res.Members) != 1) {
			t.Fatalf("resolve %s: %d decisions, members %v; want none and itself", q.ID, len(res.Decisions), res.Members)
		}
	}
	if g, ok := live.Entity(queries[0].ID); !ok || len(g) < 2 {
		t.Fatalf("Entity(%q) = %v, want the query and its matches", queries[0].ID, g)
	}
	check("kill and reopen", live, reopen(live))

	// The directory as a version-2 build leaves it: the groups listed,
	// no frame for a query that decided nothing.
	v2 := t.TempDir()
	copyDir(t, dir, v2)
	snap, _, err := persist.ReadSnapshot(v2)
	if err != nil {
		t.Fatal(err)
	}
	_, jrec, err := persist.OpenWAL(filepath.Join(v2, persist.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	var frames []persist.Entry
	for _, e := range jrec.Entries {
		if _, ds, err := persist.DecodeJournal(e.Payload); err != nil || len(ds) > 0 {
			frames = append(frames, persist.Entry{Type: e.Type, Payload: append([]byte(nil), e.Payload...)})
		}
	}
	if len(frames) == len(jrec.Entries) {
		t.Fatal("journal.log holds no empty frame")
	}
	path := filepath.Join(v2, persist.JournalFile)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w, _, err := persist.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(w.AppendEntries(frames), w.Close()); err != nil {
		t.Fatal(err)
	}
	// An empty group, as a damaged or hand-edited file can hold, adds
	// nothing.
	snap.Version, snap.V2Groups, snap.JournalBytes = 2, append(live.Snapshot(), []string{}), w.Bytes()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v2, persist.SnapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	upgraded, _ := mustOpen(t, v2, Options{Cascade: noCascade()})
	defer upgraded.Close()
	if g, ok := upgraded.Entity(lone.ID); !ok || !reflect.DeepEqual(g, []string{lone.ID}) {
		t.Fatalf("version-2 open: Entity(%q) = %v, %v", lone.ID, g, ok)
	}
	check("upgrade, checkpoint, kill and reopen", upgraded, reopen(upgraded))
}

// TestJournalImpliesGroups pins snapshot.json as a commit record: with
// the deferred queue empty it stays under a kilobyte however many
// groups the resolves formed, and a reopen rebuilds them all from
// journal.log.
func TestJournalImpliesGroups(t *testing.T) {
	withShards(t, 2)
	seed, queries := widgetRecords(200)
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Cascade: noCascade(), SnapshotEvery: -1})
	if err := s.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := s.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	multi := 0
	for _, g := range want {
		if len(g) > 1 {
			multi++
		}
	}
	if multi < 100 || s.Stats().Resilience.DeferredQueue != 0 {
		t.Fatalf("%d multi-member groups and %d deferred pairs, want at least 100 and none", multi, s.Stats().Resilience.DeferredQueue)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, persist.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= 1024 {
		t.Errorf("snapshot.json is %d bytes over %d groups, want under 1 KB", fi.Size(), multi)
	}
	again, _ := mustOpen(t, dir, Options{Cascade: noCascade()})
	defer again.Close()
	if got := again.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened groups differ:\ngot  %v\nwant %v", got, want)
	}
	checkJournalClosure(t, dir, again)
}

// journalBytesBudget is journal.log's bytes per journaled decision,
// frames included, on TestJournalBytesPerDecision's resolves: the
// version-2 payloads measured there, plus 3%. (Version-1 payloads took
// 50.36 B/decision for the same decisions.)
const journalBytesBudget = 28.95 * 1.03

// TestJournalBytesPerDecision keeps journal.log's size: a persistent
// store of the B sides of a seeded datasets.GroupedPairs("wdc") draw,
// as bench/ serves them, resolves the draw's queries through the
// simulated GPT-mini with bench/'s batch size and checkpoints; the
// committed journal.log bytes per journaled decision must stay within
// journalBytesBudget.
func TestJournalBytesPerDecision(t *testing.T) {
	pairs, err := datasets.GroupedPairs("wdc", "1", 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := llm.New("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(model, Options{PersistDir: t.TempDir(), SnapshotEvery: -1, DispatchPairs: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var stored, queries []entity.Record
	for i, p := range pairs {
		if stored = append(stored, p.B); i == 0 || pairs[i-1].A.ID != p.A.ID {
			queries = append(queries, p.A)
		}
	}
	if err := s.AddBatch(stored); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := s.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Persist
	got := float64(st.JournalBytes) / float64(st.JournalSize)
	t.Logf("%d queries, %d decisions, %d frames: journal.log %d B, %.2f B/decision (budget %.2f)",
		len(queries), st.JournalSize, len(s.journal.frames), st.JournalBytes, got, journalBytesBudget)
	if got > journalBytesBudget {
		t.Fatalf("journal.log takes %.2f B/decision, over the %.2f budget", got, journalBytesBudget)
	}
}
