package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/core"
	"llm4em/internal/dispatch"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/pipeline"
	"llm4em/internal/prompt"
	"llm4em/internal/resolve"
	"llm4em/internal/telemetry"
	"llm4em/internal/tokenize"
)

const probeModel = "GPT-mini"

// storeOptions mirror what emserve passes with the flags the benchmark
// gives it, except that the probe times checkpoints itself and so
// turns the automatic cadence off.
func storeOptions(dir string, tel *telemetry.Telemetry) resolve.Options {
	return resolve.Options{
		DispatchPairs: 16,
		PersistDir:    dir,
		SnapshotEvery: -1,
		Telemetry:     tel,
		Resilience:    resolve.ResilienceOptions{Enabled: true},
	}
}

// timer records a span around each probed call and files its duration
// under the per-layer metric it feeds.
type timer struct {
	sb *spanBuf
	// us holds the durations in microseconds by metric name. A name
	// ending in _ms reports the median of its few calls in
	// milliseconds, any other the mean in microseconds.
	us map[string][]float64
	op int64
}

// call times f as one call of the public function fn. An empty metric
// records the span only.
func (t *timer) call(metric, fn string, f func()) {
	t0 := time.Now()
	id := t.sb.id()
	f()
	t1 := time.Now()
	t.sb.add(id, 0, t.op, fn, t0, t1)
	if metric != "" {
		t.us[metric] = append(t.us[metric], us(t1.Sub(t0)))
	}
}

// results turns the recorded durations into metric values.
func (t *timer) results(out map[string]float64) {
	for name, v := range t.us {
		if strings.HasSuffix(name, "_ms") {
			out[name] = median(v) / 1e3
		} else {
			out[name] = mean(v)
		}
	}
}

// replay is what driving one in-process store through the plan showed.
type replay struct {
	resolveUS []float64
	stages    telemetry.StageDurations // summed over the resolves
	addUS     float64                  // total time in AddBatch
	added     int                      // records ingested, preload included
	walRecord float64                  // WAL bytes per ingested record
	walOps    float64                  // WAL bytes the replayed stream appended
	inserted  int                      // records the replayed stream ingested
}

// runReplay opens a store and drives it through the plan: preload,
// prime, then the first n operations of the stream, single-threaded.
// With a timer it records a span around every public call.
func runReplay(ctx context.Context, p *plan, n int, opts resolve.Options, t *timer) (*replay, *resolve.Store, error) {
	call := func(_, _ string, f func()) { f() }
	if t != nil {
		call = t.call
	}
	var store *resolve.Store
	var err error
	call("", "resolve.Open", func() { store, err = resolve.Open(llm.MustNew(probeModel), opts) })
	if err != nil {
		return nil, nil, err
	}
	rp := &replay{}
	add := func(recs []entity.Record) {
		t0 := time.Now()
		call("", "resolve.Store.AddBatch", func() { err = store.AddBatch(recs) })
		rp.addUS += us(time.Since(t0))
		rp.added += len(recs)
	}
	for i := range p.preload {
		if add(p.preload[i].records); err != nil {
			return nil, store, err
		}
	}
	preloaded := rp.added
	walPreload := store.Stats().Persist.WALBytes
	for i := range p.prime {
		if _, err := store.ResolveContext(ctx, p.prime[i].records[0]); err != nil {
			return nil, store, err
		}
	}
	wal0 := store.Stats().Persist.WALBytes
	for i := 0; i < min(n, len(p.stream)) && ctx.Err() == nil; i++ {
		o := &p.stream[i]
		if t != nil {
			t.op = int64(i + 1)
		}
		switch o.kind {
		case opFresh, opRepeat:
			tr := telemetry.NewTrace("")
			t0 := time.Now()
			call("", "resolve.Store.ResolveContext", func() {
				_, err = store.ResolveContext(telemetry.WithTrace(ctx, tr), o.records[0])
			})
			rp.resolveUS = append(rp.resolveUS, us(time.Since(t0)))
			for s, d := range tr.Durations() {
				rp.stages[s] += d
			}
		case opEntity:
			call("", "resolve.Store.Entity", func() { store.Entity(o.id) })
		case opInsert, opBatch:
			add(o.records)
		}
		if err != nil {
			return nil, store, fmt.Errorf("probe replay of %s %s: %w", o.kind, o.id, err)
		}
	}
	rp.inserted = rp.added - preloaded
	rp.walOps = float64(store.Stats().Persist.WALBytes - wal0)
	if preloaded > 0 {
		rp.walRecord = float64(walPreload) / float64(preloaded)
	} else if rp.inserted > 0 {
		rp.walRecord = rp.walOps / float64(rp.inserted)
	}
	return rp, store, ctx.Err()
}

// runProbe measures each layer from the benchmark's own process: it
// replays the workload's first operations against an in-process store
// and then calls each layer's public functions on the same inputs.
// The result maps per-layer metric names to values.
func runProbe(ctx context.Context, p *plan, r *runner, tr *tracer) (map[string]float64, error) {
	dir, err := os.MkdirTemp(r.scratch, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &timer{sb: tr.buf(), us: map[string][]float64{}}
	out := map[string]float64{}
	n := r.sizes.ProbeOps
	if len(p.stream) > 0 && p.stream[0].kind == opBatch {
		n = max(1, n/10) // a batch is two hundred operations' worth of records
	}
	snap, err := probeStore(ctx, p, n, dir, t, out)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(ctx, p, n, dir, snap, t, out); err != nil {
		return nil, err
	}
	t.results(out)
	return out, ctx.Err()
}

// probeStore replays the plan against the store as emserve runs it,
// times three checkpoints and three reopens, and replays once more
// with no telemetry handle. It returns the last checkpoint's snapshot.
func probeStore(ctx context.Context, p *plan, n int, dir string, t *timer, out map[string]float64) (*persist.Snapshot, error) {
	storeDir := filepath.Join(dir, "store")
	opts := storeOptions(storeDir, telemetry.New(telemetry.Options{}))
	rp, store, err := runReplay(ctx, p, n, opts, t)
	if store != nil {
		defer store.Close()
	}
	if err != nil {
		return nil, err
	}
	if rp.added > 0 {
		out["resolve.add_us_per_record"] = rp.addUS / float64(rp.added)
	}
	out["persist.wal_bytes_per_record"] = rp.walRecord
	if resolves := float64(len(rp.resolveUS)); resolves > 0 {
		var covered time.Duration
		for _, d := range rp.stages {
			covered += d
		}
		out["resolve.resolve_us"] = mean(rp.resolveUS)
		out["resolve.stage_coverage"] = us(covered) / (mean(rp.resolveUS) * resolves)
		for s, name := range map[telemetry.Stage]string{telemetry.StageExtract: "extract", telemetry.StageBlock: "block",
			telemetry.StageJournal: "journal", telemetry.StageScore: "score", telemetry.StageFold: "fold",
			telemetry.StagePersist: "persist"} {
			out["resolve.stage."+name+"_us"] = us(rp.stages[s]) / resolves
		}
		// lapLLM books the whole escalation wait under llm when a simulated
		// model reports latency it never slept, so the two are one number.
		out["resolve.stage.escalate_us"] = us(rp.stages[telemetry.StageDispatchWait]+rp.stages[telemetry.StageLLM]) / resolves
		out["persist.wal_bytes_per_resolve"] = (rp.walOps - rp.walRecord*float64(rp.inserted)) / resolves
	}
	for i := 0; i < 3; i++ {
		t.call("resolve.checkpoint_ms", "resolve.Store.Checkpoint", func() { err = store.Checkpoint() })
		if err != nil {
			return nil, err
		}
	}
	snap, ok, err := persist.ReadSnapshot(storeDir)
	if err != nil || !ok {
		return nil, fmt.Errorf("probe: read back checkpoint: ok=%v err=%v", ok, err)
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		var again *resolve.Store
		t.call("resolve.open_ms", "resolve.Open", func() { again, err = resolve.Open(llm.MustNew(probeModel), opts) })
		if err != nil {
			return nil, err
		}
		if err := again.Close(); err != nil {
			return nil, err
		}
	}
	if len(rp.resolveUS) == 0 {
		return snap, nil
	}
	// The same operations with no telemetry handle: the difference is
	// what the instrumentation costs a resolve.
	bare, bareStore, err := runReplay(ctx, p, n, storeOptions(filepath.Join(dir, "bare"), nil), nil)
	if bareStore != nil {
		defer bareStore.Close()
	}
	if err != nil {
		return nil, err
	}
	if b := median(bare.resolveUS); b > 0 {
		out["telemetry.overhead_share"] = median(rp.resolveUS)/b - 1
	}
	return snap, nil
}

// probeLayers calls each layer's public functions on the inputs of the
// plan's first n operations.
func probeLayers(ctx context.Context, p *plan, n int, dir string, snap *persist.Snapshot, t *timer, out map[string]float64) error {
	var records []entity.Record
	for _, ops := range [][]op{p.preload, p.stream[:min(n, len(p.stream))]} {
		for i := range ops {
			if k := ops[i].kind; k == opBatch || k == opInsert {
				records = append(records, ops[i].records...)
			}
		}
	}
	var queries []entity.Record
	for _, ops := range [][]op{p.stream, p.tail} {
		for i := range ops {
			if k := ops[i].kind; (k == opFresh || k == opRepeat) && len(queries) < n {
				queries = append(queries, ops[i].records[0])
			}
		}
	}
	byID := make(map[string]entity.Record, len(records))
	for _, rec := range records {
		byID[rec.ID] = rec
	}
	var err error
	var pairs []entity.Pair
	exts := make([]features.Extracted, len(queries))
	for i, q := range queries {
		t.op = int64(i + 1)
		t.call("features.extract_us", "features.ExtractText", func() { exts[i] = features.ExtractText(q.Serialize()) })
		for k := 0; k < candidatesPerGroup; k++ {
			cand, ok := byID[candidateID(q.ID, k)]
			if !ok {
				continue
			}
			pairs = append(pairs, entity.Pair{ID: q.ID + "|" + cand.ID, A: q, B: cand})
			cext := features.ExtractText(cand.Serialize())
			t.call("features.pair_us", "features.PairFeatures", func() { features.PairFeatures(exts[i], cext) })
		}
	}

	// One index over all the records; the store spreads them over eight.
	ix := blocking.BuildIndex(nil, blocking.IndexOptions{})
	for i, rec := range records {
		t.op = int64(i + 1)
		t.call("blocking.add_us", "blocking.Index.AddSerialized", func() { ix.AddSerialized(rec, rec.Serialize()) })
	}
	for i := range queries {
		t.op = int64(i + 1)
		t.call("blocking.query_us", "blocking.Index.QueryTokens", func() {
			ix.QueryTokens(exts[i].WordTokens, resolve.DefaultMaxCandidates, resolve.DefaultMinScore)
		})
	}
	emx := filepath.Join(dir, "probe.emx")
	for i := 0; i < 3; i++ {
		t.call("blocking.snapshot_write_ms", "blocking.Index.WriteSnapshot", func() { err = ix.WriteSnapshot(emx) })
		if err != nil {
			return err
		}
	}
	if fi, err := os.Stat(emx); err == nil && len(records) > 0 {
		out["blocking.bytes_per_record"] = float64(fi.Size()) / float64(len(records))
	}
	for i := 0; i < 3 && blocking.MmapSupported; i++ {
		var mapped *blocking.Index
		t.call("blocking.open_mapped_ms", "blocking.OpenMapped", func() { mapped, err = blocking.OpenMapped(emx, blocking.IndexOptions{}) })
		if err != nil {
			return err
		}
		mapped.Close()
	}
	uf := blocking.NewUnionFind()
	for i, pr := range pairs {
		t.op = int64(i + 1)
		t.call("blocking.unionfind_us", "blocking.UnionFind.Union", func() {
			uf.Add(pr.A.ID)
			uf.Add(pr.B.ID)
			uf.Union(pr.A.ID, pr.B.ID)
		})
	}

	design, err := prompt.DesignByName(resolve.DefaultDesign)
	if err != nil {
		return err
	}
	spec := prompt.Spec{Design: design, Domain: entity.Product}
	model := llm.MustNew(probeModel)
	eng := pipeline.New(model, pipeline.Options{})
	var tokens float64
	for i, pr := range pairs {
		t.op = int64(i + 1)
		var built string
		t.call("prompt.build_us_per_pair", "prompt.Spec.Build", func() { built = spec.Build(pr) })
		tokens += float64(tokenize.EstimateTokens(built))
		var resp llm.Response
		t.call("llm.chat_us_per_call", "llm.Model.Chat", func() {
			resp, err = model.Chat([]llm.Message{{Role: llm.User, Content: built}})
		})
		if err != nil {
			return err
		}
		t.call("core.parse_us_per_answer", "core.ParseAnswer", func() { core.ParseAnswer(resp.Content) })
		t.call("pipeline.complete_us", "pipeline.Engine.CompleteContext", func() { _, _, err = eng.CompleteContext(ctx, built) })
		if err != nil {
			return err
		}
	}
	if len(pairs) > 0 {
		out["prompt.tokens_per_pair"] = tokens / float64(len(pairs))
	}

	// One resolve's pairs through a dispatcher nobody else is using:
	// nothing fills the batch, so each call waits out the flush deadline.
	disp := dispatch.New(pipeline.New(model, pipeline.Options{}), spec.Build,
		func(ps []entity.Pair) string { return prompt.BuildBatch(entity.Product, ps) },
		dispatch.Options{MaxBatchPairs: 16})
	defer disp.Close()
	for i := 0; i+candidatesPerGroup <= len(pairs) && i < 200*candidatesPerGroup; i += candidatesPerGroup {
		t.op = int64(i/candidatesPerGroup + 1)
		t.call("dispatch.doall_us", "dispatch.Dispatcher.DoAllContext", func() {
			_, err = disp.DoAllContext(ctx, pairs[i:i+candidatesPerGroup])
		})
		if err != nil {
			return err
		}
	}

	wal, _, err := persist.OpenWAL(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer wal.Close() // a scratch log: nothing reads it back
	for i, q := range queries {
		t.op = int64(i + 1)
		entry := persist.ResolveEntry{Query: q, Report: persist.ReportEntry{Candidates: candidatesPerGroup}}
		for k := 0; k < candidatesPerGroup; k++ {
			entry.Decisions = append(entry.Decisions, persist.DecisionEntry{
				CandidateID: candidateID(q.ID, k), BlockScore: 7.5, Probability: 0.5,
				Match: k == 0, Method: string(resolve.MethodLLM), Answer: "Yes"})
		}
		var payload []byte
		t.call("persist.encode_us", "persist.EncodeResolve", func() { payload, err = persist.EncodeResolve(entry) })
		if err == nil {
			t.call("persist.append_us", "persist.WAL.Append", func() { err = wal.Append(persist.EntryResolve, payload) })
		}
		if err != nil {
			return err
		}
	}
	snapDir := filepath.Join(dir, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		t.call("persist.snapshot_json_ms", "persist.WriteSnapshot", func() { err = persist.WriteSnapshot(snapDir, snap) })
		if err != nil {
			return err
		}
	}
	return nil
}

// walEntries counts the entries a reopen of dir will replay. It scans
// a copy, because opening a WAL truncates a torn tail.
func walEntries(dir, scratch string) int {
	b, err := os.ReadFile(filepath.Join(dir, persist.WALFile))
	if err != nil {
		return 0
	}
	tmp, err := os.CreateTemp(scratch, "wal-")
	if err != nil {
		return 0
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(b)
	tmp.Close()
	if err != nil {
		return 0
	}
	wal, rec, err := persist.OpenWAL(tmp.Name())
	if err != nil {
		return 0
	}
	wal.Close()
	return len(rec.Entries)
}

// layerMetrics fills the per-layer metrics of a traced run from the
// client's measurements, the scrapes around the phase and the probe.
func layerMetrics(res *runResult, r *runner, timed *measured, probe map[string]float64, replayed int) {
	d := func(path string) float64 { return timed.st1.num(path) - timed.st0.num(path) }
	pd := func(prefix string, labels ...string) float64 {
		return timed.pm1.sum(prefix, labels...) - timed.pm0.sum(prefix, labels...)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	for k, v := range probe {
		m[k] = v
	}
	answered := float64(len(timed.latMS))
	m["bench.late_ms_p99"] = quantile(timed.lateMS, 0.99)
	m["bench.client_p99_ms"] = quantile(timed.latMS, 0.99)
	if len(timed.latMS) > 0 {
		m["bench.client_max_ms"] = timed.latMS[len(timed.latMS)-1]
	}
	m["bench.slo_share"] = timed.sloShare()
	// Half the phase ran traced and half untraced: the share by which the
	// connections got through fewer operations per second of their time
	// while they recorded spans.
	m["bench.trace_overhead_share"] = 1 - ratio(ratio(float64(timed.traced), timed.tracedBusy.Seconds()),
		ratio(answered-float64(timed.traced), timed.untracedBusy.Seconds()))

	var handlerS, handled float64
	for _, route := range []string{`route="resolve"`, `route="records"`, `route="entities"`} {
		handlerS += pd("em_http_request_seconds_sum", route)
		handled += pd("em_http_request_seconds_count", route)
	}
	m["emserve.net_us"] = mean(timed.roundtripUS) - ratio(handlerS, handled)*1e6
	resolves := pd("em_resolve_seconds_count")
	m["emserve.codec_us"] = ratio(pd("em_http_request_seconds_sum", `route="resolve"`)-pd("em_resolve_seconds_sum"), resolves) * 1e6
	m["emserve.req_bytes"] = ratio(float64(timed.reqBytes), answered)
	m["emserve.resp_bytes"] = ratio(float64(timed.respBytes), answered)
	m["emserve.status_non2xx"] = pd("em_http_responses_total") - pd("em_http_responses_total", `class="2xx"`)

	cands := d("candidate_pairs")
	m["resolve.candidates_per_resolve"] = ratio(cands, d("resolves"))
	m["resolve.journal_hit_share"] = ratio(d("journal_hits"), cands)
	m["resolve.local_share"] = ratio(d("local_accepts")+d("local_rejects"), cands-d("journal_hits"))
	queries := pd("em_blocking_queries_total")
	scanned, pruned := pd("em_blocking_postings_scanned_total"), pd("em_blocking_postings_pruned_total")
	m["blocking.postings_scanned_per_query"] = ratio(scanned, queries)
	m["blocking.postings_pruned_share"] = ratio(pruned, scanned+pruned)

	m["dispatch.pairs_per_batch"] = ratio(d("dispatch.batched_pairs"), d("dispatch.batches"))
	m["dispatch.deadline_flush_share"] = ratio(d("dispatch.deadline_flushes"),
		d("dispatch.size_flushes")+d("dispatch.deadline_flushes")+d("dispatch.drain_flushes"))
	m["dispatch.fallback_pairs"] = d("dispatch.fallback_pairs")
	m["pipeline.client_calls_per_resolve"] = ratio(d("engine.client_calls"), d("resolves"))
	m["pipeline.cache_hit_share"] = ratio(d("engine.cache_hits"), d("engine.client_calls")+d("engine.cache_hits"))
	m["persist.checkpoints"] = d("persist.snapshots")
	m["persist.checkpoint_share"] = ratio(m["persist.checkpoints"]*m["resolve.checkpoint_ms"]/1e3, timed.elapsed.Seconds())
	m["persist.replayed_entries"] = float64(replayed)
	m["resilience.shed"] = timed.st1.num("resilience.shed")
	m["resilience.deferred_pairs"] = timed.st1.num("resilience.deferred_pairs")

	for _, def := range r.perLayer {
		res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit}
	}
	res.Samples["bench.client_p99_ms"] = len(timed.latMS)
	res.Samples["resolve.resolve_us"] = r.sizes.ProbeOps
}
