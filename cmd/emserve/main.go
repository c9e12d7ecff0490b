// Command emserve serves an online entity-resolution store over HTTP
// JSON — the request-serving front door of the system. Records are
// ingested with POST /v1/records, queries resolved with POST /v1/resolve,
// and entity groups read back with GET /v1/entities/{id}; GET /v1/stats
// reports how many candidate pairs the cascade decided locally versus
// escalating to the LLM.
//
// Uncertain pairs from concurrent resolves are coalesced into
// batched prompts by a cross-request micro-batching dispatcher
// (-dispatch-pairs, default 16; 0 disables), so heavy traffic pays
// far fewer LLM round-trips than it resolves pairs. GET /v1/stats
// reports the dispatcher's batch counters under "dispatch".
//
// The prompt formulation for the uncertain band is selectable with
// -strategy (match|compare|select): compare and select answer all of
// a query's uncertain candidates with one grouped prompt instead of
// one prompt per pair, and -reason-tier re-decides pairs whose first
// LLM verdict conflicts with the local scorer through a structured
// multi-step reasoning prompt. GET /v1/stats reports per-strategy calls,
// pairs and tokens under "strategies"; see docs/STRATEGIES.md.
//
// The process is fully instrumented: GET /v1/metrics serves Prometheus
// text exposition covering per-stage resolve latency, cascade
// outcomes, dispatcher batching, LLM calls and WAL/snapshot
// durability; GET /v1/healthz and GET /v1/readyz are the liveness and
// readiness probes (readiness flips on after recovery and preload
// finish). Every response carries an X-Request-ID header (inbound
// values are propagated), access logs are structured (-log-format
// json|text), and resolves slower than -slow-resolve emit one
// structured exemplar line with the trace ID and per-stage durations.
//
// LLM escalations are fault-tolerant by default (-resilience): a
// circuit breaker trips after repeated backend failures
// (-breaker-failures, -breaker-cooldown) and a load shedder bounds
// concurrent and queued escalations (-llm-concurrency, -llm-queue;
// shed resolves answer 503 with Retry-After). While the breaker is
// open — or a -resolve-timeout deadline expires mid-escalation — the
// uncertain band is answered by the local scorer with decisions
// marked "deferred", and a background re-escalator replays them
// against the LLM once it recovers (-deferred-retry). GET /v1/readyz
// stays 200 but annotates the degraded mode; GET /v1/stats reports
// breaker state, shed counts and deferred queue depth under
// "resilience". The -chaos-outage flag fails every LLM call for a
// window after boot, for fault drills (scripts/chaos_smoke.sh).
//
// With -persist, the store is durable: records and match decisions
// are journaled to a write-ahead log in the directory and compacted
// into snapshots; restarting the server recovers the full state —
// including already-paid LLM decisions — from disk. SIGINT/SIGTERM
// shut down gracefully: in-flight requests drain (bounded by
// -shutdown-timeout), then the dispatcher is drained and the store
// flushes and writes a final snapshot.
//
// Usage:
//
//	emserve -addr :8080 -model GPT-mini
//	emserve -demo -records 200              # preload WDC offers
//	emserve -persist ./emserve-data         # durable store
//	emserve -pprof 6060                     # profiling on 127.0.0.1:6060
//	emserve -log-format json -slow-resolve 250ms
//
// Quickstart:
//
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/metrics | grep em_resolve
//	curl -s -X POST localhost:8080/v1/records -d \
//	  '{"records":[{"id":"r1","attrs":[{"name":"title","value":"sony dsc120b camera black"}]}]}'
//	curl -s -X POST localhost:8080/v1/resolve -d \
//	  '{"id":"q1","attrs":[{"name":"title","value":"Sony DSC-120B camera (black)"}]}'
//	curl -s localhost:8080/v1/entities/q1
//
// POST /v1/records also accepts a bare JSON array of records, a single
// record object, or NDJSON (Content-Type: application/x-ndjson, one
// record per line); every form is ingested as one batch.
//
// Profiling quickstart (-pprof <port>, loopback only):
//
//	go tool pprof "http://127.0.0.1:6060/debug/pprof/profile?seconds=10"
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//	curl -s "http://127.0.0.1:6060/debug/pprof/trace?seconds=5" -o trace.out && go tool trace trace.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof flag: profiling endpoint on a localhost-only port
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"llm4em"
	"llm4em/internal/chaos"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "GPT-mini", "matching model for the uncertain band")
	designName := flag.String("design", "domain-complex-force", "prompt design")
	domainName := flag.String("domain", "product", "topical domain: product or publication")
	accept := flag.Float64("accept", 0, "cascade accept-above probability (0 = default)")
	reject := flag.Float64("reject", 0, "cascade reject-below probability (0 = default)")
	llmBudget := flag.Int("llm-budget", 0, "max LLM pairs per resolve (0 = unlimited, negative = none)")
	maxCents := flag.Float64("max-cents", 0, "max estimated cents per resolve (0 = uncapped)")
	noCascade := flag.Bool("no-cascade", false, "send every candidate pair to the LLM")
	strategyName := flag.String("strategy", "match", "uncertain-band prompt strategy: match, compare or select")
	reasonTier := flag.Bool("reason-tier", false, "re-decide pairs whose LLM verdict conflicts with the local scorer via a structured reasoning prompt")
	shards := flag.Int("shards", 0, "index shards (0 = default)")
	candidates := flag.Int("candidates", 0, "max blocking candidates per resolve (0 = default)")
	deferExtraction := flag.Bool("defer-extraction", false, "skip feature extraction at ingest; extract lazily (and cache) when a record first surfaces as a candidate — faster bulk loads")
	workers := flag.Int("workers", 0, "LLM pipeline workers (0 = default)")
	dispatchPairs := flag.Int("dispatch-pairs", 16, "coalesce uncertain pairs from concurrent resolves into batched prompts of up to N pairs (0 = one round-trip per pair)")
	dispatchFlush := flag.Duration("dispatch-flush", 0, "max wait for batch-mates before a partial batch is flushed (0 = default)")
	demo := flag.Bool("demo", false, "preload records derived from WDC Products")
	records := flag.Int("records", 200, "number of records to preload in -demo mode")
	persistDir := flag.String("persist", "", "durability directory (WAL + snapshots); empty = in-memory")
	pprofPort := flag.Int("pprof", 0, "expose net/http/pprof on 127.0.0.1:<port> (0 = disabled)")
	snapshotEvery := flag.Int("snapshot-every", 0, "WAL appends between snapshots (0 = default, negative = only on shutdown)")
	syncEvery := flag.Int("sync-every", 0, "fsync the WAL every N appends (0 = only on snapshot/shutdown)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	slowResolve := flag.Duration("slow-resolve", time.Second, "resolve latency above which one structured exemplar line is logged (0 = disabled)")
	resilienceOn := flag.Bool("resilience", true, "enable the fault-tolerance layer: circuit breaker, load shedding and deferred-decision degradation for LLM escalations")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive LLM failures that trip the circuit breaker (0 = default)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before the backend is probed again (0 = default)")
	llmConcurrency := flag.Int("llm-concurrency", 0, "max concurrent LLM escalations before callers queue (0 = default)")
	llmQueue := flag.Int("llm-queue", 0, "max queued LLM escalations before resolves are shed with 503 (0 = default)")
	deferredRetry := flag.Duration("deferred-retry", 0, "poll interval for re-escalating deferred pairs once the breaker closes (0 = default)")
	resolveTimeout := flag.Duration("resolve-timeout", 0, "per-request deadline for POST /v1/resolve; expired escalations degrade to deferred local verdicts (0 = none)")
	chaosOutage := flag.Duration("chaos-outage", 0, "chaos harness: fail every LLM call for this long after boot (0 = disabled)")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	fail(err)
	slog.SetDefault(logger)
	srvLog := logger.With("component", "emserve")

	var client llm4em.Client
	client, err = llm4em.NewModel(*model)
	fail(err)
	if *chaosOutage > 0 {
		// The chaos wrapper sits between the store and the model, so an
		// outage window exercises the real breaker/degradation path the
		// way a hosted-API incident would.
		wrapped := chaos.Wrap(client, chaos.ClientOptions{})
		wrapped.OutageFor(*chaosOutage)
		client = wrapped
	}
	strategy, err := llm4em.ParseStrategy(*strategyName)
	fail(err)
	design, err := llm4em.DesignByName(*designName)
	fail(err)
	domain := llm4em.Product
	switch *domainName {
	case "product":
	case "publication":
		domain = llm4em.Publication
	default:
		fail(fmt.Errorf("unknown domain %q", *domainName))
	}

	tel := llm4em.NewTelemetry(llm4em.TelemetryOptions{
		Logger:      logger.With("component", "resolve"),
		SlowResolve: *slowResolve,
	})

	// Readiness stays false until recovery and preload are done, so a
	// load balancer never routes to a replica still replaying its WAL.
	ready := &atomic.Bool{}

	store, err := llm4em.OpenStore(client, llm4em.StoreOptions{
		Shards:          *shards,
		MaxCandidates:   *candidates,
		DeferExtraction: *deferExtraction,
		Design:          design,
		Domain:          domain,
		Workers:         *workers,
		DispatchPairs:   *dispatchPairs,
		DispatchFlush:   *dispatchFlush,
		PersistDir:      *persistDir,
		SnapshotEvery:   *snapshotEvery,
		SyncEvery:       *syncEvery,
		Telemetry:       tel,
		Resilience: llm4em.ResilienceOptions{
			Enabled: *resilienceOn,
			Breaker: llm4em.BreakerOptions{
				ConsecutiveFailures: *breakerFailures,
				Cooldown:            *breakerCooldown,
			},
			Shed: llm4em.ShedOptions{
				MaxConcurrent: *llmConcurrency,
				MaxQueue:      *llmQueue,
			},
			RetryInterval: *deferredRetry,
		},
		Cascade: llm4em.CascadeOptions{
			AcceptAbove:        *accept,
			RejectBelow:        *reject,
			LLMBudget:          *llmBudget,
			MaxCentsPerResolve: *maxCents,
			Disable:            *noCascade,
			Strategy:           strategy,
			ReasonTier:         *reasonTier,
		},
	})
	fail(err)
	if ps := store.Stats().Persist; ps.Enabled {
		srvLog.Info("persist recovered",
			"dir", ps.Dir,
			"records", ps.RecoveredRecords,
			"decisions", ps.RecoveredDecisions,
			"resolves", ps.RecoveredResolves,
			"torn_tail", ps.TruncatedTail)
	}

	if *demo {
		// Per-record, skipping duplicates: a recovered store holds some
		// or all of the demo collection already, and a batch insert
		// would stop at the first one.
		added := 0
		for _, r := range demoCollection(*records) {
			switch err := store.Add(r); {
			case err == nil:
				added++
			case errors.Is(err, llm4em.ErrDuplicateRecordID):
				// already recovered from disk
			default:
				fail(err)
			}
		}
		srvLog.Info("demo records preloaded", "added", added, "stored", store.Len())
	}
	ready.Store(true)

	var pprofSrv *http.Server
	if *pprofPort > 0 {
		// Profiling endpoint on a loopback-only port, separate from the
		// serving mux: the pprof import registers its handlers on
		// http.DefaultServeMux, which the API server never uses. The
		// listener is bound synchronously so a taken port fails startup
		// instead of logging from a goroutine after the fact, and the
		// explicit server handle has a shutdown path in the drain below.
		pprofAddr := fmt.Sprintf("127.0.0.1:%d", *pprofPort)
		ln, err := net.Listen("tcp", pprofAddr)
		fail(err)
		pprofSrv = &http.Server{Handler: http.DefaultServeMux}
		go func() {
			srvLog.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", pprofAddr))
			if err := pprofSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srvLog.Error("pprof server failed", "error", err)
			}
		}()
	}

	if *chaosOutage > 0 {
		srvLog.Warn("chaos outage window active: every LLM call fails", "duration", *chaosOutage)
	}

	// Slowloris-resistant server limits: a stalled client cannot pin a
	// connection open indefinitely. Handlers that stream (none today)
	// would need per-route overrides before raising these.
	srv := &http.Server{
		Addr: *addr,
		Handler: newHandler(handlerConfig{
			store:          store,
			tel:            tel,
			log:            logger.With("component", "http"),
			ready:          ready,
			resolveTimeout: *resolveTimeout,
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	srvLog.Info("listening", "model", *model, "design", *designName, "addr", *addr)

	select {
	case err := <-serveErr:
		fail(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		srvLog.Info("shutting down, draining in-flight requests", "max", *shutdownTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srvLog.Warn("drain incomplete", "error", err)
		}
		if pprofSrv != nil {
			if err := pprofSrv.Close(); err != nil {
				srvLog.Warn("close pprof server", "error", err)
			}
		}
		// Flush and snapshot after the last request has finished, so
		// the final state on disk includes everything that was served.
		if err := store.Close(); err != nil {
			srvLog.Error("close store", "error", err)
			os.Exit(1)
		}
		srvLog.Info("state flushed, bye")
	}
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags. Logs go to stderr, keeping stdout clean for
// piping.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// demoCollection builds a dirty record collection from the WDC test
// split, as cmd/emblock does.
func demoCollection(n int) []entity.Record {
	ds := datasets.MustLoad("wdc")
	var recs []entity.Record
	seen := map[string]bool{}
	for _, p := range ds.Test {
		for _, r := range []entity.Record{p.A, p.B} {
			if !seen[r.ID] {
				recs = append(recs, r)
				seen[r.ID] = true
			}
			if len(recs) == n {
				return recs
			}
		}
	}
	return recs
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(1)
	}
}
