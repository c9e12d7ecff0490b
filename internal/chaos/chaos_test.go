package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/chaos"
	"llm4em/internal/clock"
	"llm4em/internal/entity"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/pipeline"
	"llm4em/internal/resilience"
	"llm4em/internal/resolve"
)

func rec(id, title string) entity.Record {
	return entity.Record{ID: id, Attrs: []entity.Attr{{Name: "title", Value: title}}}
}

// matchClient is the healthy deterministic backend under the chaos
// wrapper: it answers Yes when the pairwise prompt shows the shared
// "sameent" marker on both sides, No otherwise.
type matchClient struct {
	calls atomic.Int64
}

func (c *matchClient) Name() string { return "match-sim" }

func (c *matchClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.calls.Add(1)
	prompt := messages[len(messages)-1].Content
	answer := "No."
	if strings.Count(prompt, "sameent") >= 2 {
		answer = "Yes."
	}
	return llm.Response{Content: answer, PromptTokens: len(prompt) / 4, CompletionTokens: 2}, nil
}

// --- chaos client ---

// TestClientDeterminism pins the seeded fault schedule: two wrappers
// with the same seed and rates inject the identical fault sequence,
// which is what lets a chaos run be replayed and compared against a
// reference.
func TestClientDeterminism(t *testing.T) {
	opts := chaos.ClientOptions{Seed: 7, FailRate: 0.3, MalformedRate: 0.2}
	trace := func() []string {
		c := chaos.Wrap(&matchClient{}, opts)
		msgs := []llm.Message{{Role: llm.User, Content: "sameent sameent"}}
		var out []string
		for i := 0; i < 50; i++ {
			resp, err := c.Chat(msgs)
			switch {
			case err != nil:
				out = append(out, "fail")
			case resp.Content == "Yes.":
				out = append(out, "ok")
			default:
				out = append(out, "malformed")
			}
		}
		return out
	}
	a, b := trace(), trace()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault schedule not deterministic:\n%v\n%v", a, b)
	}
	joined := strings.Join(a, ",")
	for _, want := range []string{"fail", "ok", "malformed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("50 calls at 30/20 rates injected no %q", want)
		}
	}
}

// TestClientOutageAndRetryAfter checks the outage lever and the
// retry hint on injected transient errors.
func TestClientOutageAndRetryAfter(t *testing.T) {
	inner := &matchClient{}
	c := chaos.Wrap(inner, chaos.ClientOptions{RetryAfter: 250 * time.Millisecond})
	msgs := []llm.Message{{Role: llm.User, Content: "x"}}

	c.SetOutage(true)
	_, err := c.Chat(msgs)
	if !errors.Is(err, pipeline.ErrTransient) {
		t.Fatalf("outage error not transient: %v", err)
	}
	if d, ok := pipeline.RetryAfter(err); !ok || d != 250*time.Millisecond {
		t.Fatalf("RetryAfter hint = %v,%v; want 250ms,true", d, ok)
	}
	if inner.calls.Load() != 0 {
		t.Fatalf("outage call reached the inner client")
	}
	if got := c.Outaged(); got != 1 {
		t.Fatalf("Outaged = %d, want 1", got)
	}

	c.SetOutage(false)
	if _, err := c.Chat(msgs); err != nil {
		t.Fatalf("call after outage cleared: %v", err)
	}

	// A timed outage window runs on the client's clock and clears itself.
	clk := new(clock.Manual)
	w := chaos.Wrap(inner, chaos.ClientOptions{Clock: clk})
	w.OutageFor(time.Second)
	clk.Advance(time.Second - time.Nanosecond)
	_, during := w.Chat(msgs)
	clk.Advance(time.Nanosecond)
	if _, after := w.Chat(msgs); during == nil || after != nil {
		t.Fatalf("1ns before the window closes: %v; once closed: %v; want an error, then none", during, after)
	}
}

// TestClientHangHonoursContext checks that an injected hang unblocks
// as soon as the caller's deadline expires — the property deadline
// propagation relies on.
func TestClientHangHonoursContext(t *testing.T) {
	c := chaos.Wrap(&matchClient{}, chaos.ClientOptions{HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ChatContext(ctx, []llm.Message{{Role: llm.User, Content: "x"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang outlived the deadline by %v", elapsed)
	}
}

// --- chaos filesystem: WAL write-path failures (satellite 4) ---

// seedStore opens a persistent store over fsys with two records
// added one at a time, so the WAL write ordinals are fixed: writes 1
// and 2 are the record entries, write 3 is the first resolve's
// decision entry.
func seedStore(t *testing.T, dir string, fsys persist.FS, opts resolve.Options) *resolve.Store {
	t.Helper()
	opts.PersistDir = dir
	opts.FS = fsys
	s, err := resolve.Open(&matchClient{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec("r1", "alpha beta sameent0001")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec("r2", "gamma delta other0001")); err != nil {
		t.Fatal(err)
	}
	return s
}

// reopenJournal reopens dir over the real filesystem and returns the
// final journal keyed query|candidate — the durable prefix a restart
// would see.
func reopenJournal(t *testing.T, dir string) map[string]persist.DecisionEntry {
	t.Helper()
	s, err := resolve.Open(&matchClient{}, resolve.Options{PersistDir: dir})
	if err != nil {
		t.Fatalf("store not reopenable: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := map[string]persist.DecisionEntry{}
	for _, j := range committedJournal(t, dir) {
		m[j.query+"|"+j.CandidateID] = j.DecisionEntry
	}
	return m
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

// checkJournalClosure checks the invariant the store owes its users,
// from outside it: the groups of more than one member that a reopen of
// dir reports are exactly the transitive closure of the matches its
// committed journal holds — non-deferred, a later frame of a pair
// superseding an earlier one.
func checkJournalClosure(t *testing.T, dir string) {
	t.Helper()
	s, err := resolve.Open(&matchClient{}, resolve.Options{PersistDir: dir})
	if err != nil {
		t.Fatalf("store not reopenable: %v", err)
	}
	var got [][]string
	for _, g := range s.Snapshot() {
		if len(g) > 1 {
			got = append(got, g)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	final := map[[2]string]persist.DecisionEntry{}
	for _, d := range committedJournal(t, dir) {
		final[[2]string{d.query, d.CandidateID}] = d.DecisionEntry
	}
	uf := blocking.NewUnionFind()
	for pair, d := range final {
		if d.Match && !d.Deferred {
			uf.Union(pair[0], pair[1])
		}
	}
	if want := uf.Groups(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Errorf("groups are not the closure of the journaled matches:\ngroups:  %v\nclosure: %v", got, want)
	}
}

// reopenedGroups opens dir and returns the entity groups the store
// recovers from it.
func reopenedGroups(t *testing.T, dir string) [][]string {
	t.Helper()
	s, err := resolve.Open(&matchClient{}, resolve.Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Snapshot()
}

// TestWALFsyncError injects an fsync failure and checks it surfaces
// as the typed durability error while the store itself stays usable
// and reopenable.
func TestWALFsyncError(t *testing.T) {
	dir := t.TempDir()
	fsys := chaos.NewFS(chaos.FSOptions{FailSyncAt: 1})
	s := seedStore(t, dir, fsys, resolve.Options{})

	if _, err := s.Resolve(rec("q1", "alpha beta sameent0001")); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	err := s.Flush()
	if !errors.Is(err, persist.ErrWALWrite) {
		t.Fatalf("Flush after injected fsync failure = %v, want ErrWALWrite", err)
	}
	// The failure was transient: the next fsync lands everything.
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush retry: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	j := reopenJournal(t, dir)
	if d, ok := j["q1|r1"]; !ok || !d.Match {
		t.Fatalf("decision q1|r1 not durable after fsync recovery: %+v ok=%v", d, ok)
	}
}

// TestWALShortWrite injects a short write on the resolve append: the
// call must fail with the typed error, the log must roll back to the
// previous entry boundary, and the store must keep journaling and
// stay reopenable from the durable prefix.
func TestWALShortWrite(t *testing.T) {
	testWALAppendFault(t, chaos.FSOptions{ShortWriteAt: 3})
}

// TestWALENOSPC is the same contract when the append fails up front
// with a full disk.
func TestWALENOSPC(t *testing.T) {
	testWALAppendFault(t, chaos.FSOptions{ENOSPCAt: 3})
}

// testWALAppendFault runs the contract twice: with a healthy LLM, where
// the failed resolve would have merged q1 into r1, and under an outage,
// where it would have deferred the pair. Log-then-apply: the failed
// call must leave graph, totals, journal and deferred queue untouched,
// in this process and after a reopen.
func testWALAppendFault(t *testing.T, faults chaos.FSOptions) {
	for _, outage := range []bool{false, true} {
		name := "healthy"
		if outage {
			name = "outage"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			client := chaos.Wrap(&matchClient{}, chaos.ClientOptions{Seed: 7})
			clk := new(clock.Manual)
			opts := resolve.Options{PersistDir: dir, FS: chaos.NewFS(faults)}
			if outage {
				// Every pair reaches the LLM, and its failure degrades.
				opts.Cascade = noCascade()
				opts.Resilience = chaosResilience(clk)
			}
			s, err := resolve.Open(client, opts)
			if err != nil {
				t.Fatal(err)
			}
			// One at a time, so the WAL write ordinals are fixed: writes 1
			// and 2 are the records, write 3 is the first resolve.
			for _, r := range []entity.Record{rec("r1", "alpha beta sameent0001"), rec("r2", "gamma delta sameent0002")} {
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			unapplied := func(s *resolve.Store, resolves uint64, when string) {
				t.Helper()
				if m, ok := s.Entity("q1"); ok {
					t.Errorf("%s: Entity(q1) = %v, want unknown: its resolve never reached the log", when, m)
				}
				if m, _ := s.Entity("r1"); !reflect.DeepEqual(m, []string{"r1"}) {
					t.Errorf("%s: Entity(r1) = %v, want [r1]", when, m)
				}
				if st := s.Stats(); st.Resolves != resolves || st.Resilience.DeferredQueue != 0 {
					t.Errorf("%s: %d resolves counted, %d pairs queued, want %d and 0",
						when, st.Resolves, st.Resilience.DeferredQueue, resolves)
				}
			}

			// Write 3: the decision entry hits the injected fault.
			client.SetOutage(outage)
			_, err = s.Resolve(rec("q1", "alpha beta sameent0001"))
			if !errors.Is(err, persist.ErrWALWrite) {
				t.Fatalf("resolve over faulted append = %v, want ErrWALWrite", err)
			}
			unapplied(s, 0, "after the failed append")
			client.SetOutage(false)
			// The log rolled back cleanly, so the store keeps accepting work.
			if _, err := s.Resolve(rec("q2", "gamma delta sameent0002")); err != nil {
				t.Fatalf("resolve after rollback: %v", err)
			}
			clk.Advance(time.Millisecond) // q2 met the open breaker: the tick past the cooldown re-decides it
			if st := s.Stats().Resilience; st.DeferredQueue != 0 {
				t.Fatalf("deferred queue not drained a cooldown on: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			j := reopenJournal(t, dir)
			if _, ok := j["q1|r1"]; ok {
				t.Errorf("failed append q1|r1 reappeared after reopen")
			}
			if d, ok := j["q2|r2"]; !ok || !d.Match || d.Deferred {
				t.Errorf("post-rollback decision q2|r2 not durable: %+v ok=%v", d, ok)
			}
			opts.FS = nil
			s, err = resolve.Open(client, opts)
			if err != nil {
				t.Fatal(err)
			}
			unapplied(s, 1, "after reopen")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			checkJournalClosure(t, dir)
		})
	}
}

// TestAddBatchOneWrite pins the bulk-load write path: a batch of any
// size costs the WAL one write, and a batch whose write tears is rolled
// back whole — typed error, log append-clean, later appends durable.
func TestAddBatchOneWrite(t *testing.T) {
	dir := t.TempDir()
	fsys := chaos.NewFS(chaos.FSOptions{ShortWriteAt: 2})
	s, err := resolve.Open(&matchClient{}, resolve.Options{PersistDir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(prefix string, n int) []entity.Record {
		rs := make([]entity.Record, n)
		for i := range rs {
			rs[i] = rec(fmt.Sprintf("%s%03d", prefix, i), fmt.Sprintf("alpha beta %s%04d", prefix, i))
		}
		return rs
	}
	if err := s.AddBatch(batch("a", 200)); err != nil {
		t.Fatal(err)
	}
	if got := fsys.Writes(); got != 1 {
		t.Fatalf("a 200-record batch took %d WAL writes, want 1", got)
	}
	// Write 2 tears halfway through the second batch.
	err = s.AddBatch(batch("b", 50))
	var be *resolve.BatchError
	if !errors.Is(err, persist.ErrWALWrite) || !errors.As(err, &be) || be.Added != 50 {
		t.Fatalf("faulted batch = %v, want a BatchError over ErrWALWrite with 50 added", err)
	}
	if err := s.Add(rec("c000", "alpha beta c0000")); err != nil {
		t.Fatalf("add after rollback: %v", err)
	}
	// Crash here: a Close would checkpoint the in-memory records, the
	// unjournaled batch included.
	s2, err := resolve.Open(&matchClient{}, resolve.Options{PersistDir: dir})
	if err != nil {
		t.Fatalf("store not reopenable: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 201 || st.Persist.TruncatedTail {
		t.Errorf("reopened with %d records, truncated tail %v: want the 200 + 1 journaled ones and a clean log",
			st.Records, st.Persist.TruncatedTail)
	}
	if _, ok := s2.Record("b000"); ok {
		t.Error("a record of the rolled-back batch reappeared")
	}
}

// --- differential chaos run (tentpole part d) ---

// chaosResilience trips the breaker on the first failure and, with a
// millisecond cooldown, retries deferred pairs a millisecond of clk
// later, so outage tests converge in one Advance.
func chaosResilience(clk clock.Clock) resolve.ResilienceOptions {
	return resolve.ResilienceOptions{
		Breaker: resilience.BreakerOptions{
			ConsecutiveFailures: 1,
			Cooldown:            time.Millisecond,
			Clock:               clk,
		},
	}
}

// noCascade is the no-cascade baseline: both thresholds negative, so
// every candidate pair goes to the LLM.
func noCascade() resolve.CascadeOptions {
	return resolve.CascadeOptions{AcceptAbove: -1, RejectBelow: -1}
}

// TestOutageDifferential is the acceptance check for graceful
// degradation: under a full injected LLM outage every resolve
// returns a local verdict marked Deferred with no surfaced error;
// after the outage clears, the re-escalator drains the queue and the
// final durable journal and entity groups are byte-identical to an
// uninterrupted run over the same inputs.
func TestOutageDifferential(t *testing.T) {
	var seed []entity.Record
	var queries []entity.Record
	for i := 0; i < 8; i++ {
		marker := "sameent"
		if i%2 == 1 {
			marker = "other"
		}
		seed = append(seed, rec(fmt.Sprintf("r%02d", i),
			fmt.Sprintf("alpha beta %s%04d", marker, i)))
		queries = append(queries, rec(fmt.Sprintf("q%02d", i),
			fmt.Sprintf("alpha beta sameent%04d", i)))
	}

	run := func(dir string, outage bool) *persist.Snapshot {
		wrapped := chaos.Wrap(&matchClient{}, chaos.ClientOptions{Seed: 42})
		// The clock stands still until the outage is lifted, so the 1 ms
		// cooldown cannot lapse (open reads half-open once it has) before
		// the strict open-state assertion below.
		clk := new(clock.Manual)
		res := chaosResilience(clk)
		s, err := resolve.Open(wrapped, resolve.Options{
			Cascade:    noCascade(),
			PersistDir: dir,
			Resilience: res,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
		wrapped.SetOutage(outage)
		for _, q := range queries {
			res, err := s.Resolve(q)
			if err != nil {
				t.Fatalf("resolve %s: %v", q.ID, err)
			}
			if !outage {
				continue
			}
			// 100% of escalations degrade: every decision is a local
			// verdict explicitly marked deferred.
			for _, d := range res.Decisions {
				if !d.Deferred || d.Method != resolve.MethodDeferred {
					t.Fatalf("resolve %s under outage: decision %s method=%s deferred=%v",
						q.ID, d.CandidateID, d.Method, d.Deferred)
				}
			}
		}
		if outage {
			st := s.Stats().Resilience
			if st.BreakerState != "open" {
				t.Fatalf("breaker %s during outage, want open", st.BreakerState)
			}
			if st.DeferredQueue == 0 || st.DeferredPairs == 0 {
				t.Fatalf("no deferred pairs queued during outage: %+v", st)
			}
			if wrapped.Outaged() == 0 {
				t.Fatalf("chaos client injected no outage failures")
			}
			wrapped.SetOutage(false)
			clk.Advance(res.Breaker.Cooldown)
			if st := s.Stats().Resilience; st.DeferredQueue != 0 {
				t.Fatalf("deferred queue not drained a cooldown after the outage: %+v", st)
			}
			if got := s.Stats().Resilience.Redecided; got == 0 {
				t.Fatalf("queue drained but nothing re-decided")
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		snap, ok, err := persist.ReadSnapshot(dir)
		if err != nil || !ok {
			t.Fatalf("ReadSnapshot: ok=%v err=%v", ok, err)
		}
		return snap
	}

	healthyDir, recoveredDir := t.TempDir(), t.TempDir()
	run(healthyDir, false)
	recovered := run(recoveredDir, true)

	if hg, rg := reopenedGroups(t, healthyDir), reopenedGroups(t, recoveredDir); !reflect.DeepEqual(hg, rg) {
		t.Errorf("groups diverged:\nhealthy:   %v\nrecovered: %v", hg, rg)
	}
	toMap := func(js []journaled) map[string]persist.DecisionEntry {
		m := map[string]persist.DecisionEntry{}
		for _, j := range js {
			m[j.query+"|"+j.CandidateID] = j.DecisionEntry
		}
		return m
	}
	hj, rj := toMap(committedJournal(t, healthyDir)), toMap(committedJournal(t, recoveredDir))
	if !reflect.DeepEqual(hj, rj) {
		t.Errorf("journals diverged:\nhealthy:   %v\nrecovered: %v", hj, rj)
	}
	if len(recovered.Deferred) != 0 {
		t.Errorf("recovered snapshot still carries %d deferred pairs", len(recovered.Deferred))
	}
	checkJournalClosure(t, healthyDir)
	checkJournalClosure(t, recoveredDir)
}

// TestFaultMixStillConverges runs the richer fault mix — transient
// errors, malformed replies, latency spikes — on top of the
// resilience layer and checks that every resolve still completes
// without a surfaced error and the store drains to a steady state. A
// cooldown passes after each resolve; the spikes are real milliseconds.
func TestFaultMixStillConverges(t *testing.T) {
	wrapped := chaos.Wrap(&matchClient{}, chaos.ClientOptions{
		Seed:          11,
		FailRate:      0.2,
		MalformedRate: 0.1,
		LatencyRate:   0.2,
		LatencySpike:  time.Millisecond,
	})
	clk := new(clock.Manual)
	res := chaosResilience(clk)
	s := resolve.New(wrapped, resolve.Options{
		Cascade:    noCascade(),
		Resilience: res,
	})
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.Add(rec(fmt.Sprintf("r%02d", i),
			fmt.Sprintf("alpha beta sameent%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		r, err := s.Resolve(rec(fmt.Sprintf("q%02d", i),
			fmt.Sprintf("alpha beta sameent%04d", i)))
		if err != nil {
			t.Fatalf("resolve under fault mix: %v", err)
		}
		if len(r.Decisions) == 0 {
			t.Fatalf("resolve q%02d produced no decisions", i)
		}
		clk.Advance(res.Breaker.Cooldown)
	}
	// Each tick finds the breaker half-open and re-decides pairs until a
	// fault trips it again; a thousand of them drain the queue.
	clk.Advance(1000 * res.Breaker.Cooldown)
	if st := s.Stats().Resilience; st.DeferredQueue != 0 {
		t.Fatalf("deferred queue not drained: %+v", st)
	}
}

// TestMemFSCrashKeepsSyncedDirectories: a directory MkdirAll made is an
// entry of its parent, so Crash drops it, with everything under it,
// until the parent's SyncDir has run; once that has run, the directory
// survives with the entries its own SyncDir made durable.
func TestMemFSCrashKeepsSyncedDirectories(t *testing.T) {
	mem := chaos.NewMemFS()
	mk := func(dir string) {
		t.Helper()
		if err := mem.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		f, err := mem.Create(filepath.Join(dir, "f"))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := mem.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	mk("/kept/sub")
	mk("/lost/sub")
	for _, dir := range []string{"/", "/kept"} {
		if err := mem.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	if names, err := mem.List("/kept/sub"); err != nil || !reflect.DeepEqual(names, []string{"f"}) {
		t.Errorf("synced directory after the crash: %v, %v; want [f]", names, err)
	}
	if names, err := mem.List("/lost/sub"); err == nil {
		t.Errorf("/lost/sub survived the crash (%v) although /lost was never synced", names)
	}
}
