package resolve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"llm4em/internal/entity"
	"llm4em/internal/persist"
)

// durableState is everything a reopen must reproduce: entity groups,
// the decision journal, the lifetime totals and the deferred queue.
type durableState struct {
	Groups   [][]string
	Journal  map[pairID]persist.DecisionEntry
	Totals   Stats
	Deferred []deferredPair
}

func stateOf(s *Store) durableState {
	st := persistedStats(s.Stats())
	st.Resilience = ResilienceStats{} // breaker state is process-local
	ds := durableState{Groups: s.Snapshot(), Journal: map[pairID]persist.DecisionEntry{}, Totals: st}
	s.persistMu.Lock()
	for k, v := range s.journal {
		ds.Journal[k] = v
	}
	s.persistMu.Unlock()
	if s.res != nil {
		s.res.mu.Lock()
		ds.Deferred = append(ds.Deferred, s.res.queue...)
		s.res.mu.Unlock()
		sort.Slice(ds.Deferred, func(i, j int) bool {
			a, b := ds.Deferred[i], ds.Deferred[j]
			return a.query.ID+"|"+a.candidateID < b.query.ID+"|"+b.candidateID
		})
	}
	return ds
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

// TestCheckpointCrashWindows enumerates the states a crash can leave
// around the five-step checkpoint — and the damage a journal.log can
// take — and requires every reopen either to equal the uncrashed
// store in groups, journal, totals and deferred queue, and stay equal
// through a healing checkpoint, or to fail with the typed error.
//
// The script: three healthy resolves, checkpoint one; two resolves
// deferred by an outage and re-decided after it, one more deferred
// and still queued; checkpoint two. `before` is the directory as
// checkpoint two found it, `after` as it left it.
func TestCheckpointCrashWindows(t *testing.T) {
	opts := Options{Shards: 2, Cascade: CascadeOptions{Disable: true}, Resilience: resilientOptions()}
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
	waitForStore(t, "deferred queue drain", func() bool { return a.Stats().Resilience.DeferredQueue == 0 })
	client.down.Store(true)
	resolveAll(queries[5:6])
	a.stopResilience() // freeze the queue: one pair or more still deferred
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

	for name, tc := range map[string]struct {
		base    string            // directory the crash happened in
		files   map[string]string // name -> directory to take it from instead
		journal []byte            // journal.log contents, when not nil
		rebind  bool              // the snapshot commits exactly journal
		torn    bool              // reopen must fail with ErrJournalTorn
	}{
		// Steps 1-3 ran, the rename did not.
		"journal extended, snapshot old": {base: before, files: map[string]string{persist.JournalFile: after}},
		// The crash tore the journal append itself.
		"journal torn inside the delta, snapshot old": {base: before, journal: journal[:j0+(j1-j0)/2]},
		// Steps 1-4 ran, the WAL reset did not: every WAL entry is a repeat.
		"snapshot new, wal not reset": {base: after, files: map[string]string{persist.WALFile: before}},
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
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tc.base, dir)
			for f, from := range tc.files {
				copyFile(t, filepath.Join(from, f), filepath.Join(dir, f))
			}
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
			b.stopResilience()
			if got := stateOf(b); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened state differs from the uncrashed store:\ngot  %+v\nwant %+v", got, want)
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
			c.stopResilience()
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

// growJournal journals n synthetic decisions, ten to a query, the way
// a resolve does after its WAL append — the journal grows while
// groups, records and totals stay put.
func growJournal(s *Store, tag string, n int) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	for q := 0; q < n/10; q++ {
		ds := make([]persist.DecisionEntry, 10)
		for k := range ds {
			ds[k] = persist.DecisionEntry{CandidateID: fmt.Sprintf("s%05d", (q*10+k)%10000), BlockScore: 7.5,
				Probability: 0.5, Match: k == 0, Method: string(MethodLLM), Answer: "No."}
		}
		s.journalDecisions(fmt.Sprintf("%s-%06d", tag, q), ds)
	}
}

// TestCheckpointBytesIndependentOfJournal pins the O(delta) claim in
// bytes: what a checkpoint writes outside the index files —
// snapshot.json plus the journal.log extension — is the same for the
// same delta whether 1 000 or 50 000 decisions were journaled before.
func TestCheckpointBytesIndependentOfJournal(t *testing.T) {
	written := func(journaled int) (snapshotBytes, journalDelta int64) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{Shards: 2})
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
		if want := int64(journaled) * 30; base < want {
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
