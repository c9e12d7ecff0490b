package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	StreamHash string   `json:"stream_hash"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// Metrics are the end-to-end metrics of an untraced run and the
	// per-layer metrics of a traced one.
	Metrics map[string]metricValue `json:"metrics"`
	// Samples is the number of observations behind each timing.
	Samples map[string]int `json:"samples"`
	// SelfUS is, per span name of a traced run, the mean time per call
	// not covered by child spans.
	SelfUS map[string]float64 `json:"self_us,omitempty"`
	// SpanFile is where a traced run wrote its spans.
	SpanFile string `json:"span_file,omitempty"`
}

// runner holds what every run of this process shares.
type runner struct {
	bin     string // emserve binary
	scratch string // directory for persist dirs, logs and span files
	sizes   sizes
	seconds float64
	// conns is the number of sender goroutines and connections: nproc
	// on the box the benchmark was sized on.
	conns int
	// crashes is how many kill-and-reopen cycles end a run, each with
	// its durability check.
	crashes int
	// spareReopens is how many kills and reopens are timed on each spare
	// set-up; reopen_s is the fastest of them all.
	spareReopens int
	// perLayer is the per-layer metric list of BENCHMARK.json, which a
	// traced run fills.
	perLayer []metricDef
}

// live is a started server with the client and checker bound to it.
type live struct {
	srv    *server
	client *client
	check  *checker
}

// setUp starts emserve on a new directory, preloads the plan's records
// and primes its repeat set. It returns how long that took, from the
// spawn, and the records per second of the preload.
func (r *runner) setUp(ctx context.Context, p *plan, hc *http.Client) (l *live, seconds, recordsPerS float64, err error) {
	dir, err := os.MkdirTemp(r.scratch, "persist-")
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	srv, err := startServer(ctx, r.bin, dir, dir+".log", hc)
	if err != nil {
		return nil, 0, 0, err
	}
	// Nothing is written beside the repeats when repeats are all there is.
	static := !slices.ContainsFunc(p.stream, func(o op) bool { return o.kind != opRepeat })
	chk := &checker{gold: p.corpus.gold, static: static}
	l = &live{srv: srv, client: &client{http: hc, base: srv.base, check: chk}, check: chk}
	preload := runPhase(ctx, l.client, p.preload, nil, r.conns, time.Hour, nil, nil)
	runPhase(ctx, l.client, p.prime, nil, r.conns, time.Hour, nil, nil)
	seconds = time.Since(t0).Seconds()
	if err := ctx.Err(); err != nil || chk.failed > 0 {
		tail := srv.logTail()
		l.drop()
		return nil, 0, 0, fmt.Errorf("set-up failed: %v %v\n%s", err, chk.failures, tail)
	}
	if preload.records > 0 {
		recordsPerS = float64(preload.records) / preload.elapsed.Seconds()
	}
	return l, seconds, recordsPerS, nil
}

// drop kills the server and removes its directory and log.
func (l *live) drop() {
	l.srv.kill()
	os.RemoveAll(l.srv.dir)
	os.Remove(l.srv.logf)
}

// members reads the entity group an ID belongs to.
func (l *live) members(ctx context.Context, id string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", l.srv.base+"/v1/entities/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.client.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/entities/%s: status %d: %s", id, resp.StatusCode, body)
	}
	var r struct {
		Members []string `json:"members"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("GET /v1/entities/%s: %w", id, err)
	}
	return r.Members, nil
}

// reopen kills the server, restarts it on the same directory and
// returns the time from the kill to /v1/readyz answering 200.
func (l *live) reopen(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	l.srv.kill()
	srv, err := startServer(ctx, l.srv.bin, l.srv.dir, l.srv.logf, l.client.http)
	if err != nil {
		return 0, err
	}
	took := time.Since(t0)
	l.srv, l.client.base = srv, srv.base
	return took, nil
}

// checkDurable compares the reopened server with what was acknowledged
// before the kill: record and resolve counts, and sampled memberships.
func (l *live) checkDurable(ctx context.Context, sample map[string][]string) error {
	st, err := l.srv.stats()
	if err != nil {
		return err
	}
	if got, want := int64(st.num("records")), l.check.records.Load(); got != want {
		l.check.fail("after reopen: %d records stored, %d acknowledged", got, want)
	}
	if got, want := int64(st.num("resolves")), l.check.resolves.Load(); got != want {
		l.check.fail("after reopen: %d resolves counted, %d acknowledged", got, want)
	}
	for id, want := range sample {
		got, err := l.members(ctx, id)
		if err != nil {
			l.check.fail("after reopen: %v", err)
		} else if !slices.Equal(got, want) {
			l.check.fail("after reopen: entity of %s is %v, was %v", id, got, want)
		}
	}
	return nil
}

// sampleIDs draws n IDs the server has acknowledged: stored records and
// resolved queries of every phase that ran.
func sampleIDs(seed int64, n int, phases ...[]op) []string {
	var pool []string
	for _, ops := range phases {
		for i := range ops {
			if ops[i].kind == opBatch {
				for _, rec := range ops[i].records {
					pool = append(pool, rec.ID)
				}
			} else {
				pool = append(pool, ops[i].id)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, 0, n)
	for len(pool) > 0 && len(ids) < n {
		ids = append(ids, pool[rng.Intn(len(pool))])
	}
	return ids
}

// measured is what the timed phase and the scrapes around it produced.
type measured struct {
	phase
	// st0 and st1 are /v1/stats before and after the phase; pm0 and pm1
	// are /v1/metrics, scraped on traced runs only.
	st0, st1 stats
	pm0, pm1 promMetrics
	// rssMB is the server's VmRSS every 100 ms of the phase.
	rssMB []float64
	tr    *tracer
}

// timedPhase runs the plan's stream against the live server. Server
// counters are scraped before and after, never during.
func (r *runner) timedPhase(ctx context.Context, l *live, p *plan, trace bool) (*measured, error) {
	m := &measured{}
	var err error
	if m.st0, err = l.srv.stats(); err != nil {
		return nil, err
	}
	traced := func(int, time.Duration) bool { return false }
	if trace {
		if m.pm0, err = l.srv.metrics(); err != nil {
			return nil, err
		}
		m.tr = newTracer()
		// Quarters run untraced, traced, traced, untraced, so a drift
		// over the phase weighs on both halves alike. A stream sized by
		// time is far longer than what gets sent and its clock says how
		// far the phase is; a stream sized by input ends well inside its
		// limit and its index says so.
		traced = func(i int, at time.Duration) bool {
			q := int(4 * max(float64(at)/float64(p.limit), float64(i)/float64(len(p.stream))))
			return q == 1 || q == 2
		}
	}
	runtime.GC() // see run: the collector is off, so this is the only one
	stopRSS, rssOut := make(chan struct{}), make(chan []float64, 1)
	go l.srv.sampleRSS(stopRSS, rssOut)
	m.phase = runPhase(ctx, l.client, p.stream, p.due, r.conns, p.limit, m.tr, traced)
	close(stopRSS)
	m.rssMB = <-rssOut
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.st1, err = l.srv.stats(); err != nil {
		return nil, err
	}
	if trace {
		m.pm1, err = l.srv.metrics()
	}
	return m, err
}

// reopened is what the kill-and-reopen cycles that end a run produced.
type reopened struct {
	seconds   []float64 // kill to ready, per cycle
	diskBytes int64     // persist directory after the first reopen
	replayed  int       // WAL entries the first reopen had to replay
	attempted int       // comparisons made
}

// killAndReopen checks that what was acknowledged survives SIGKILL. It
// samples entity memberships among ids, kills the server where the
// timed phase and the tail left it and reopens it, crashes times over.
// After every reopen the record and resolve counts must be what was
// acknowledged. The sampled memberships are compared after the first
// reopen, the one crash that interrupts work, and after the last: a
// membership read costs emserve 10 to 20 ms once ten thousand fresh
// resolves have grown the entities.
//
// These reopens are timed, but reopen_s is theirs only where set-up
// leaves an empty store (see spare): a loop sized by time stops
// somewhere else in the server's checkpoint cycle on every run, and
// the faster the server, the larger the store it has to reopen.
func (r *runner) killAndReopen(ctx context.Context, l *live, ids []string, crashes int) (*reopened, error) {
	sample := map[string][]string{}
	for _, id := range ids {
		m, err := l.members(ctx, id)
		if err != nil {
			l.check.fail("before kill: %v", err)
			continue
		}
		sample[id] = m
	}
	ro := &reopened{attempted: len(ids), replayed: walEntries(l.srv.dir, r.scratch)}
	for i := 0; i < crashes; i++ {
		var compare map[string][]string
		if i == 0 || i == crashes-1 {
			compare = sample
		}
		took, err := l.reopen(ctx)
		if err == nil {
			err = l.checkDurable(ctx, compare)
		}
		if err != nil {
			return nil, fmt.Errorf("kill and reopen: %w\n%s", err, l.srv.logTail())
		}
		ro.attempted += len(compare) + 2
		ro.seconds = append(ro.seconds, took.Seconds())
		if i == 0 {
			if ro.diskBytes, err = l.srv.diskBytes(); err != nil {
				return nil, err
			}
		}
	}
	return ro, nil
}

// spares is what the set-ups of a run measured, the one the phase ran on
// and the spare ones beside it.
type spares struct {
	setupS      []float64 // spawn to primed, per set-up
	preloadPerS []float64 // records per second of each preload
	reopenS     []float64 // kill to ready, of the spare set-ups' stores
	attempted   int       // comparisons made after those reopens
	failures    []string  // what those comparisons found wrong
}

// spare sets up a server the phase will not use, times kills and
// reopens of the store that set-up left, and drops it. That store is the
// same on every run of a seed: the preloaded records, the primed
// resolves, and the WAL the server's own checkpoint cycle has left of
// them. Half of a run's spare set-ups come before the phase and half
// after the last crash, so setup_s and reopen_s are taken at moments half
// a minute apart: on a shared host that runs a quarter slower for tens
// of seconds at a time, set-ups and reopens made in a row sit in one such
// spell or in none.
func (r *runner) spare(ctx context.Context, p *plan, hc *http.Client, sp *spares) error {
	l, took, rate, err := r.setUp(ctx, p, hc)
	if err != nil {
		return err
	}
	defer l.drop()
	sp.setupS, sp.preloadPerS = append(sp.setupS, took), append(sp.preloadPerS, rate)
	if len(p.preload) == 0 {
		return nil // an empty store: its reopen is a process start
	}
	for i := 0; i < r.spareReopens; i++ {
		took, err := l.reopen(ctx)
		if err == nil {
			err = l.checkDurable(ctx, nil)
		}
		if err != nil {
			return fmt.Errorf("kill and reopen after set-up: %w\n%s", err, l.srv.logTail())
		}
		sp.reopenS = append(sp.reopenS, took.Seconds())
		sp.attempted += 2
	}
	sp.failures = append(sp.failures, l.check.failures...)
	return nil
}

// run executes one workload once. An error means the benchmark itself
// could not run; failed checks are reported in the result.
func (r *runner) run(ctx context.Context, workload string, seed int64, trace bool) (*runResult, error) {
	// lap records how long each part of the run took, for the progress line.
	var laps []string
	last := time.Now()
	lap := func(name string) {
		laps = append(laps, fmt.Sprintf("%s %.1fs", name, time.Since(last).Seconds()))
		last = time.Now()
	}
	p, err := buildPlan(workload, seed, r.seconds, r.sizes)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: workload, Seed: seed, Trace: trace, StreamHash: p.hash(),
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	lap("plan")
	hc := newHTTPClient(r.conns)
	defer hc.CloseIdleConnections()

	// The client's own collector would take a processor from the server
	// for a tenth of a second at a time, on a two-processor box, and
	// showed up as latency episodes in the phase. Set-ups and reopens
	// are timed too. The plan is the client's heap; what a run allocates
	// on top of it is requests and decoded answers, some 20 KB an
	// operation: a gigabyte over twenty seconds of repeat. So the
	// collector runs now and before the timed phase and is otherwise held
	// off until the last reopen. The memory limit is a backstop four
	// times that: a client that reached it collected back to back and
	// took a fifth off the server's throughput for ten seconds.
	runtime.GC()
	debug.SetMemoryLimit(4 << 30)
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)

	// The load comes from one thread. Two sender goroutines wait on two
	// connections and need a processor only to encode and to verify; on
	// two processors a client that ran them on a thread each competed
	// with the server for both (p50_ms of repeat over six alternating
	// pairs of runs: 0.682 ms, spread 2.5%, on one thread; 0.724 ms,
	// spread 4.1%, on two).
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)

	// Set-up, several times over so that setup_s is a median: spare
	// set-ups before the phase, the one the phase runs on, and as many
	// spare ones again once the run's own server is dead. A traced run
	// reports no end-to-end metric, so it sets up once, crashes once and
	// skips the quality tail.
	setups, crashes, tailOps := p.setups, r.crashes, p.tail
	if trace {
		setups, crashes, tailOps = 1, 1, nil
	}
	before := (setups - 1) / 2
	sp := &spares{}
	for i := 0; i < before; i++ {
		if err := r.spare(ctx, p, hc, sp); err != nil {
			return nil, err
		}
	}
	l, took, rate, err := r.setUp(ctx, p, hc)
	if err != nil {
		return nil, err
	}
	defer l.drop()
	sp.setupS, sp.preloadPerS = append(sp.setupS, took), append(sp.preloadPerS, rate)

	// Let priming settle: what each primed query's entity holds now is
	// what every repeat of it must answer.
	l.check.expected = make(map[string][]string, len(p.prime))
	for i := range p.prime {
		m, err := l.members(ctx, p.prime[i].id)
		if err != nil {
			return nil, fmt.Errorf("read primed entity: %w\n%s", err, l.srv.logTail())
		}
		l.check.expected[p.prime[i].id] = m
	}

	lap("set-ups")
	m, err := r.timedPhase(ctx, l, p, trace)
	if err != nil {
		return nil, err
	}
	lap("phase")

	// The quality tail: held-out fresh queries, the same on every
	// workload, so match quality and LLM cost are measured against the
	// store the phase left behind.
	tail := runPhase(ctx, l.client, tailOps, nil, r.conns, time.Hour, nil, nil)
	st2, err := l.srv.stats()
	if err != nil {
		return nil, err
	}
	lap("tail")
	for _, name := range []string{"resilience.shed", "resilience.deferred_pairs"} {
		if v := st2.num(name); v != 0 {
			l.check.fail("%s = %v: the run degraded and is void", name, v)
		}
	}

	// Durability: what was acknowledged must survive SIGKILL.
	taken := min(m.attempted, len(p.stream))
	ids := sampleIDs(seed, r.sizes.Sample, p.preload, p.prime, p.stream[:taken], tailOps)
	ro, err := r.killAndReopen(ctx, l, ids, crashes)
	if err != nil {
		return nil, err
	}
	lap("crashes")
	l.srv.kill() // the spare set-ups have the processors to themselves
	for i := before + 1; i < setups; i++ {
		if err := r.spare(ctx, p, hc, sp); err != nil {
			return nil, err
		}
	}
	lap("spare set-ups")
	chk := l.check
	for _, f := range sp.failures {
		chk.fail("spare set-up: %s", f)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d ops in %.2fs, %d fresh resolves scored tp=%d fp=%d fn=%d tn=%d, set-ups %.3v s, their reopens %.3v s, crashes %.3v s, %d failed checks; %s\n",
		workload, m.attempted, m.elapsed.Seconds(), chk.fresh.Load(),
		chk.tp.Load(), chk.fp.Load(), chk.fn.Load(), chk.tn.Load(), sp.setupS, sp.reopenS, ro.seconds, chk.failed, strings.Join(laps, ", "))
	res.Attempted = m.attempted + tail.attempted + ro.attempted + sp.attempted
	res.Failed, res.Failures = chk.failed, chk.failures
	res.Correct = chk.failed == 0
	if !res.Correct {
		res.Failures = append(res.Failures, l.srv.logTail())
	}
	if !trace {
		endToEnd(res, m, &tail, st2, chk, sp, ro)
		return res, nil
	}

	// Traced run: per-layer numbers from the client spans, the scrapes
	// and an in-process replay of the workload's first operations, made
	// once the server no longer competes for the processors.
	debug.SetGCPercent(gc)    // the probe's layers pay for their garbage as the server's do
	runtime.GOMAXPROCS(procs) // and run on every processor, as the server does
	probe, err := runProbe(ctx, p, r, m.tr)
	if err != nil {
		return nil, err
	}
	layerMetrics(res, r, m, probe, ro.replayed)
	spans := m.tr.all()
	res.SelfUS = map[string]float64{}
	for name, acc := range selfTimes(spans) {
		res.SelfUS[name] = float64(acc[1]) / float64(acc[0]) / 1e3
	}
	res.SpanFile = filepath.Join(r.scratch, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	return res, writeSpans(res.SpanFile, spans)
}

// endToEnd fills the end-to-end metrics of an untraced run. Every
// workload reports every metric, so a rate the timed phase does not
// produce comes from the untimed work beside it: the bulk load of an
// empty store is ingest's phase and every other workload's preload, and
// ingest's resolves are its quality tail. st2 is /v1/stats after the
// tail.
func endToEnd(res *runResult, m *measured, tail *phase, st2 stats, chk *checker, sp *spares, ro *reopened) {
	set := func(name, unit string, v float64, samples int) {
		res.Metrics[name] = metricValue{v, unit}
		res.Samples[name] = samples
	}
	set("setup_s", "s", median(sp.setupS), len(sp.setupS))
	resolved := &m.phase
	if resolved.resolves == 0 {
		resolved = tail
	}
	set("resolves_per_s", "1/s", float64(resolved.resolves)/resolved.elapsed.Seconds(), resolved.resolves)
	// A preload is under a second of work; like a reopen, it is reported
	// by its fastest instance.
	if load := slices.Max(sp.preloadPerS); load > 0 {
		set("records_per_s", "1/s", load, len(sp.preloadPerS))
	} else {
		set("records_per_s", "1/s", float64(m.records)/m.elapsed.Seconds(), m.records)
	}
	set("p50_ms", "ms", m.windowQuantile(0.50), len(m.latMS))
	set("p95_ms", "ms", m.windowQuantile(0.95), len(m.latMS))
	set("slo_share", "share", m.sloShare(), m.attempted)
	// The one latency every workload measures alike, and half of it the
	// dispatcher's timer: a never-seen query in a closed loop, over the
	// quality tail.
	set("fresh_p50_ms", "ms", tail.windowQuantile(0.50), len(tail.latMS))
	// LLM cost and match quality cover the fresh resolves of the phase
	// and the tail together.
	fresh := float64(chk.fresh.Load())
	delta := func(path string) float64 { return st2.num(path) - m.st0.num(path) }
	set("llm_calls_per_resolve", "count", delta("engine.client_calls")/fresh, int(fresh))
	set("llm_tokens_per_resolve", "count", (delta("prompt_tokens")+delta("completion_tokens"))/fresh, int(fresh))
	set("f1", "share", chk.f1(), int(chk.tp.Load()+chk.fp.Load()+chk.fn.Load()+chk.tn.Load()))
	// A reopen is 0.1 s of one thread's work, and on a shared host one
	// such stretch in three runs a tenth to a third slow, in spells: the
	// disturbance only ever adds, so the fastest reopen is the one to
	// report. The median of five sat on either level from run to run.
	reopens := sp.reopenS
	if len(reopens) == 0 {
		reopens = ro.seconds // ingest: set-up leaves an empty store
	}
	set("reopen_s", "s", slices.Min(reopens), len(reopens))
	set("disk_bytes_per_record", "B", float64(ro.diskBytes)/float64(max(chk.records.Load(), 1)), 1)
	// The resident set climbs in steps, one per collection cycle, as the
	// store grows. Where a step falls moves the median sample, and the
	// last one, by the step's height; it moves the mean by a little.
	set("rss_mb", "MB", mean(m.rssMB), len(m.rssMB))
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
