package resolve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"llm4em/internal/blocking"
	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/persist"
)

// explicitOracle is the entity graph as the store kept it before
// singleton entities became implicit: graph.Add for every stored record
// and every resolved query, one union per journaled, non-deferred match
// — the invariant the store owes its users, with nothing left implicit.
// It learns records and queries from the script and the decisions from
// the store's journal, where the re-escalator's verdicts land too.
type explicitOracle struct {
	ids   []string // stored records and resolved queries, in script order
	known map[string]bool
}

func (o *explicitOracle) add(id string) {
	if !o.known[id] {
		o.known[id] = true
		o.ids = append(o.ids, id)
	}
}

// check compares Snapshot, Entity for every ID the script knows (and
// one it does not) and Stats().Entities against the explicit graph.
func (o *explicitOracle) check(t *testing.T, s *Store, when string) {
	t.Helper()
	uf := blocking.NewUnionFind()
	for _, id := range o.ids {
		uf.Add(id)
	}
	s.persistMu.Lock()
	for k, d := range s.journal {
		if d.Match && !d.Deferred {
			uf.Union(k.query, k.candidate)
		}
	}
	s.persistMu.Unlock()
	if uf.Len() != len(o.ids) {
		t.Fatalf("%s: the journal names IDs the script never used", when)
	}
	if got, want := s.Snapshot(), uf.Groups(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Snapshot differs from the explicit graph:\ngot  %v\nwant %v", when, got, want)
	}
	for _, id := range o.ids {
		got, ok := s.Entity(id)
		if want := uf.Members(id); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Entity(%q) = %v,%v, want %v", when, id, got, ok, want)
		}
	}
	if got, ok := s.Entity("never-seen"); ok {
		t.Errorf("%s: Entity of an unknown ID = %v, want none", when, got)
	}
	if got := s.Stats().Entities; got != uf.Sets() {
		t.Errorf("%s: Stats().Entities = %d, want %d", when, got, uf.Sets())
	}
}

// singletonGroup is one product family of the script: two or three
// stored records sharing a rare token — "a" and, when present, "c"
// carry the marker the test client matches on, "b" does not — and a
// query that carries it.
type singletonGroup struct {
	a, b, c entity.Record
	hasC    bool
	q       entity.Record
}

func singletonGroups(rng *detrand.RNG, n int) []singletonGroup {
	gs := make([]singletonGroup, n)
	for i := range gs {
		text := func(marker string, k int) string {
			return fmt.Sprintf("alpha beta %s%02d%d widget%02d", marker, i, k, i)
		}
		gs[i] = singletonGroup{
			a:    rec(fmt.Sprintf("r%02da", i), text("sameent", 0)),
			b:    rec(fmt.Sprintf("r%02db", i), text("other", 1)),
			c:    rec(fmt.Sprintf("r%02dc", i), text("sameent", 2)),
			hasC: rng.Bool(0.4),
			q:    rec(fmt.Sprintf("q%02d", i), text("sameent", 3)),
		}
	}
	return gs
}

func (g singletonGroup) records() []entity.Record {
	if g.hasC {
		return []entity.Record{g.a, g.b, g.c}
	}
	return []entity.Record{g.a, g.b}
}

// TestImplicitSingletonsMatchExplicitGraph drives a seeded script —
// bulk and single adds, resolves, a resolved query added afterwards,
// stored IDs re-resolved (one that stays alone, one that merges two
// stored records), an outage whose deferred pairs the re-escalator
// settles, a checkpoint, more of the same into the WAL, a kill and a
// reopen, more again, a clean close and another reopen — and compares
// the store with the explicit-singleton oracle after every step, on the
// three ways records come back at open: mapped EMIX shards, records
// inline in snapshot.json (what a build without mmap writes, forced
// here by making the index writes fail), and mapped files re-inserted
// under a different shard count.
func TestImplicitSingletonsMatchExplicitGraph(t *testing.T) {
	paths := []struct {
		name         string
		inline       bool
		reopenShards int
	}{
		{name: "emix", reopenShards: 4},
		{name: "inline", inline: true, reopenShards: 4},
		{name: "reshard", reopenShards: 3},
	}
	for _, path := range paths {
		for _, seed := range []string{"s1", "s2", "s3"} {
			t.Run(path.name+"/"+seed, func(t *testing.T) {
				rng := detrand.New("implicit-singletons", seed)
				gs := singletonGroups(rng, 12)
				dir := t.TempDir()
				// failIndexWrites makes the inline path: os.Create of shard
				// 0's temporary file fails on a directory, for every epoch
				// the script can reach.
				failIndexWrites := func(dir string) {
					for epoch := uint64(1); path.inline && epoch <= 8; epoch++ {
						if err := os.Mkdir(filepath.Join(dir, persist.IndexFileName(epoch, 0)+".tmp"), 0o755); err != nil {
							t.Fatal(err)
						}
					}
				}
				failIndexWrites(dir)
				opts := Options{Shards: 4, PersistDir: dir, SnapshotEvery: -1,
					Cascade: CascadeOptions{Disable: true}, Resilience: resilientOptions()}
				client := &outageClient{}
				s, err := Open(client, opts)
				if err != nil {
					t.Fatal(err)
				}
				oracle := &explicitOracle{known: map[string]bool{}}

				resolve := func(q entity.Record) {
					t.Helper()
					if _, err := s.Resolve(q); err != nil {
						t.Fatal(err)
					}
					oracle.add(q.ID)
				}
				addGroup := func(g singletonGroup, batch bool) {
					t.Helper()
					for _, r := range g.records() {
						oracle.add(r.ID)
					}
					if batch {
						if err := s.AddBatch(g.records()); err != nil {
							t.Fatal(err)
						}
						return
					}
					for _, r := range g.records() {
						if err := s.Add(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				settle := func() {
					t.Helper()
					waitForStore(t, "deferred queue drain", func() bool { return s.Stats().Resilience.DeferredQueue == 0 })
				}
				// round adds three groups and resolves their queries in a
				// seeded order; the second query is decided during an outage
				// and re-decided after it.
				round := func(gs []singletonGroup, when string) {
					t.Helper()
					for i, g := range gs {
						addGroup(g, rng.Bool(0.5) || i == 0)
					}
					oracle.check(t, s, when+": after adds")
					for n, i := range rng.Perm(len(gs)) {
						if n == 1 {
							client.down.Store(true)
							resolve(gs[i].q)
							oracle.check(t, s, when+": pairs deferred")
							client.down.Store(false)
							settle()
							continue
						}
						resolve(gs[i].q)
					}
					oracle.check(t, s, when+": after resolves")
					// A stored ID as the query: "b" matches nothing and stays
					// alone (now explicitly); "a" merges with "c" where there
					// is one, and with the group's query through it.
					resolve(gs[0].b)
					resolve(gs[1].a)
					// A resolved query becomes a stored record.
					if err := s.Add(gs[2].q); err != nil {
						t.Fatal(err)
					}
					resolve(gs[0].q) // a repeat: journal hits only
					oracle.check(t, s, when+": after re-resolves")
				}

				round(gs[0:3], "first round")
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				snap, _, err := persist.ReadSnapshot(dir)
				if err != nil {
					t.Fatal(err)
				}
				if inline := snap.IndexShards == 0 && len(snap.Records) > 0; inline != path.inline {
					t.Fatalf("checkpoint wrote %d index shards and %d inline records, want inline=%v",
						snap.IndexShards, len(snap.Records), path.inline)
				}
				for _, g := range snap.Groups {
					if _, stored := s.Record(g[0]); len(g) == 1 && stored && g[0] != gs[0].b.ID {
						t.Errorf("snapshot.json lists the singleton %v of a record no resolve touched", g)
					}
				}
				oracle.check(t, s, "after the checkpoint")
				round(gs[3:6], "second round (WAL tail)")

				// Kill: the directory as it is, no Close, no checkpoint.
				crashed := t.TempDir()
				copyDir(t, dir, crashed)
				failIndexWrites(crashed) // copyDir leaves directories behind
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				opts.PersistDir, opts.Shards = crashed, path.reopenShards
				if s, err = Open(client, opts); err != nil {
					t.Fatal(err)
				}
				if ps := s.Stats().Persist; path.name == "emix" && ps.MappedShards != 4 ||
					path.name != "emix" && ps.MappedShards != 0 || ps.MappedFallback {
					t.Fatalf("reopen on the %s path: %+v", path.name, ps)
				}
				oracle.check(t, s, "after kill and reopen")
				round(gs[6:9], "third round (reopened)")

				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(client, opts); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				oracle.check(t, s, "after close and reopen")
				round(gs[9:12], "fourth round")
				if st := s.Stats(); st.DeferredPairs == 0 || st.Redecided != uint64(st.DeferredPairs) {
					t.Errorf("script deferred %d pairs and re-decided %d, want some and all", st.DeferredPairs, st.Redecided)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(client, opts); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				checkJournalClosure(t, crashed, s)
			})
		}
	}
}
