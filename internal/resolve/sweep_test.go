package resolve

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/chaos"
	"llm4em/internal/clock"
	"llm4em/internal/persist"
	"llm4em/internal/resilience"
)

// sweepStep is one operation of the crash sweep's script. closes marks
// a step after which the store is closed, and changes no state.
type sweepStep struct {
	name   string
	closes bool
	run    func() error
}

// sweepScript is the crash sweep's fixed workload over fsys: batches,
// resolves, two resolves deferred by an outage, two of their pairs
// re-decided (the others stay queued), a checkpoint with its swap, a
// record and a resolve on the swapped base, Close, and a reopen with
// another shard count that checkpoints and closes. store returns the
// store the script has open, if any.
func sweepScript(fsys persist.FS) (steps []sweepStep, store func() *Store) {
	seed, queries := widgetRecords(8)
	var s *Store
	// The clock moves only when the script says. Each open moves it half
	// a cooldown, past the first tick, so a tick never finds the breaker
	// half-open: the script re-decides pairs itself.
	clk := new(clock.Manual)
	ropts := resilientOptions(clk)
	cooldown := ropts.Breaker.Cooldown
	opts := Options{PersistDir: sweepDir, FS: fsys, Cascade: noCascade(), Resilience: ropts, SnapshotEvery: -1, SyncEvery: 1}
	client := &outageClient{}
	open := func(shards int) func() error {
		return func() (err error) {
			indexShards = shards
			client.down.Store(true) // the first tick re-decides nothing
			if s, err = Open(client, opts); err == nil {
				clk.Advance(cooldown / 2)
			}
			return err
		}
	}
	resolve := func(q int) func() error {
		return func() error {
			_, err := s.Resolve(queries[q])
			return err
		}
	}
	redecide := func() error {
		client.down.Store(false)
		if s.res.breaker.State() == resilience.Open {
			clk.Advance(cooldown) // past the cooldown, short of the next tick: the breaker probes
		}
		dp, ok := s.res.head()
		if !ok {
			return errors.New("no deferred pair to re-decide")
		}
		if !s.redecide(dp) {
			return errors.New("re-decision failed")
		}
		return nil
	}
	outage := func(q int) func() error {
		return func() error {
			client.down.Store(true)
			return resolve(q)()
		}
	}
	steps = []sweepStep{
		{name: "open", run: open(2)},
		{name: "add batch", run: func() error { return s.AddBatch(seed[:4]) }},
		{name: "add batch", run: func() error { return s.AddBatch(seed[4:]) }},
		{name: "resolve", run: resolve(0)},
		{name: "resolve", run: resolve(1)},
		{name: "outage-defer", run: outage(2)},
		{name: "outage-defer", run: outage(3)},
		{name: "redecide", run: redecide},
		{name: "redecide", run: redecide},
		{name: "checkpoint", run: func() error { return s.Checkpoint() }},
		{name: "add on the swapped base", run: func() error { return s.Add(rec("r9", "alpha beta sameent0009 widget05")) }},
		{name: "resolve on the swapped base", run: func() error {
			_, err := s.Resolve(rec("q5", "alpha beta sameent0009 widget05"))
			return err
		}},
		{name: "close", closes: true, run: func() error { return s.Close() }},
		{name: "reopen resharded", run: open(3)},
		{name: "checkpoint resharded", run: func() error { return s.Checkpoint() }},
		{name: "close resharded", closes: true, run: func() error { return s.Close() }},
	}
	return steps, func() *Store { return s }
}

const sweepDir = "/store"

// TestCheckpointCrashSweep proves the commit protocol by enumeration.
// One deterministic script (sweepScript) runs with SyncEvery 1 over an
// in-memory filesystem, crashing at each mutating FS call in turn: that
// call and every later one fail, the store is abandoned, and
// chaos.MemFS.Crash keeps only what was synced. After each crash the
// directory reopens to the state just before or just after the script
// step in flight, and one checkpoint heals it: the same state, groups
// that are the closure of the committed journal, and nothing on disk
// but the committed index generation, snapshot.json, journal.log and
// wal.log. Every run makes the same FS calls up to its crash.
func TestCheckpointCrashSweep(t *testing.T) {
	withShards(t, 2)
	start := time.Now()

	// The uncrashed run: the state after each step, and the mutating FS
	// calls made by its end.
	var calls atomic.Int64
	fsys := chaos.WrapFS(chaos.NewMemFS(), chaos.FSOptions{Fail: func(op chaos.Op, _ string) error {
		if op.Mutates() {
			calls.Add(1)
		}
		return nil
	}})
	steps, store := sweepScript(fsys)
	states := make([]durableState, len(steps))
	bounds := make([]int64, len(steps))
	for i, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("uncrashed step %d (%s): %v", i, st.name, err)
		}
		bounds[i] = calls.Load()
		if st.closes {
			states[i] = states[i-1]
		} else {
			states[i] = stateOf(store())
		}
	}
	if len(states[len(states)-1].Deferred) == 0 || states[len(states)-1].Totals.Redecided == 0 {
		t.Fatal("the script left no deferred pair or no re-decision")
	}

	errCrash := errors.New("crashed")
	for crashAt := int64(1); crashAt <= bounds[len(bounds)-1]; crashAt++ {
		mem := chaos.NewMemFS()
		var mu sync.Mutex
		var n int64
		crashed := false
		steps, store := sweepScript(chaos.WrapFS(mem, chaos.FSOptions{Fail: func(op chaos.Op, _ string) error {
			mu.Lock()
			defer mu.Unlock()
			if !crashed && op.Mutates() {
				n++
				crashed = n == crashAt
			}
			if crashed {
				return errCrash
			}
			return nil
		}}))
		inFlight := -1
		for i, st := range steps {
			err := st.run()
			mu.Lock()
			done, calls := crashed, n
			mu.Unlock()
			if done {
				inFlight = i
				break
			}
			if err != nil {
				t.Fatalf("crash at call %d: step %d (%s) failed before the crash: %v", crashAt, i, st.name, err)
			}
			if calls != bounds[i] {
				t.Fatalf("crash at call %d: step %d (%s) ended at FS call %d, the uncrashed run at %d", crashAt, i, st.name, calls, bounds[i])
			}
		}
		if inFlight < 0 {
			t.Fatalf("crash at call %d: the script ended without reaching it", crashAt)
		}
		if s := store(); s != nil {
			s.Close() // every call fails: this only stops its goroutines
		}
		mem.Crash()
		where := fmt.Sprintf("crash at call %d, in step %d (%s)", crashAt, inFlight, steps[inFlight].name)
		checkCrashed(t, mem, where, states[max(inFlight-1, 0)], states[inFlight])
	}
	t.Logf("%d crash points in %d steps, %v", bounds[len(bounds)-1], len(steps), time.Since(start))
}

// checkCrashed reopens a crashed directory, requires the state before
// or after the step in flight, and heals it with one checkpoint.
func checkCrashed(t *testing.T, mem *chaos.MemFS, where string, before, after durableState) {
	t.Helper()
	indexShards = 2
	down := &outageClient{}
	down.down.Store(true)
	// The clock never moves, so the deferred queue stays where the crash
	// left it.
	opts := Options{PersistDir: sweepDir, FS: mem, Cascade: noCascade(), Resilience: resilientOptions(new(clock.Manual)), SnapshotEvery: -1}
	reopen := func() (*Store, durableState) {
		t.Helper()
		s, err := Open(down, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", where, err)
		}
		return s, stateOf(s)
	}
	s, got := reopen()
	if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
		s.Close()
		t.Fatalf("%s: reopened state is neither the state before the step nor after it:\ngot    %+v\nbefore %+v\nafter  %+v", where, got, before, after)
	}
	err := s.Checkpoint()
	if err == nil {
		checkJournalClosure(t, sweepDir, s)
		err = s.Close()
	}
	if err != nil {
		t.Fatalf("%s: healing checkpoint: %v", where, err)
	}
	s, healed := reopen()
	defer s.Close()
	if !reflect.DeepEqual(healed, got) {
		t.Fatalf("%s: the state after the healing checkpoint differs:\ngot  %+v\nwant %+v", where, healed, got)
	}
	var want []string
	for i := range 2 {
		want = append(want, persist.IndexFileName(s.Stats().Persist.IndexEpoch, i))
	}
	want = append(want, persist.JournalFile, persist.SnapshotFile, persist.WALFile)
	if files, err := mem.List(sweepDir); err != nil || !reflect.DeepEqual(files, want) {
		t.Fatalf("%s: directory after the healing checkpoint = %v (%v), want %v", where, files, err, want)
	}
}

// TestOpenSyncsCreatedDirectories: Open creates a missing persistence
// directory with its missing parents, and each of them is an entry of
// its own parent, so an OS crash drops the lot unless Open syncs those
// parents. An Add made durable by SyncEvery 1 must survive a crash
// right after it.
func TestOpenSyncsCreatedDirectories(t *testing.T) {
	mem := chaos.NewMemFS()
	var crashed atomic.Bool // from the crash on, every call of the store's FS fails
	fsys := chaos.WrapFS(mem, chaos.FSOptions{Fail: func(chaos.Op, string) error {
		if crashed.Load() {
			return errors.New("crashed")
		}
		return nil
	}})
	opts := Options{PersistDir: "/data/em/store", FS: fsys, Cascade: noCascade(), SyncEvery: 1}
	s, err := Open(&countingClient{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec("r1", "alpha widget")); err != nil {
		t.Fatal(err)
	}
	crashed.Store(true)
	mem.Crash()
	s.Close() // every call fails: this only stops its goroutines
	opts.FS = mem
	s, err = Open(&countingClient{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Record("r1"); !ok {
		t.Fatal("the record SyncEvery 1 made durable did not survive the crash: its directory vanished")
	}
}
