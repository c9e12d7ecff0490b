package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"llm4em"
)

// newTestServer builds a handler over a GPT-mini store (deterministic
// simulated model — no network).
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(handlerConfig{store: llm4em.NewStore(model, llm4em.StoreOptions{
		Domain: llm4em.Product,
	})}))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

const seedBody = `{"records":[
	{"id":"r1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"},{"name":"price","value":"348.00"}]},
	{"id":"r2","attrs":[{"name":"title","value":"makita impact drill kit 18v"},{"name":"price","value":"129.00"}]},
	{"id":"r3","attrs":[{"name":"title","value":"epson workforce 845 printer"},{"name":"price","value":"199.00"}]}
]}`

// TestServerEndToEnd is the acceptance flow: seed records, resolve a
// query, read the entity back, check the stats — all over HTTP JSON.
func TestServerEndToEnd(t *testing.T) {
	srv := newTestServer(t)

	// Ingest.
	resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/records = %d: %v", resp.StatusCode, body)
	}
	if body["added"].(float64) != 3 || body["records"].(float64) != 3 {
		t.Fatalf("ingest response %v", body)
	}

	// Resolve a near-duplicate of r1.
	resp, body = postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"Sony DSC-120B Cybershot camera (black)"},{"name":"price","value":"351.00"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/resolve = %d: %v", resp.StatusCode, body)
	}
	if body["query_id"] != "q1" {
		t.Errorf("query_id = %v", body["query_id"])
	}
	if body["matched"] != true {
		t.Fatalf("near-duplicate did not match: %v", body)
	}
	if body["entity_id"] != "q1" { // smallest member of {q1, r1}
		t.Errorf("entity_id = %v, want q1", body["entity_id"])
	}
	members, _ := body["members"].([]any)
	if len(members) != 2 || members[0] != "q1" || members[1] != "r1" {
		t.Errorf("members = %v, want [q1 r1]", members)
	}
	decisions, _ := body["decisions"].([]any)
	if len(decisions) == 0 {
		t.Fatal("no decisions in resolve response")
	}
	d0 := decisions[0].(map[string]any)
	for _, key := range []string{"candidate_id", "block_score", "probability", "match", "method"} {
		if _, ok := d0[key]; !ok {
			t.Errorf("decision missing %q: %v", key, d0)
		}
	}
	cost, _ := body["cost"].(map[string]any)
	if cost == nil || cost["candidates"].(float64) < 1 {
		t.Fatalf("cost report %v", cost)
	}
	if cost["priced"] != true {
		t.Error("GPT-mini resolve should be priced")
	}

	// Entity lookup for a member that was only a stored record.
	resp, body = getJSON(t, srv.URL+"/v1/entities/r1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/entities/r1 = %d: %v", resp.StatusCode, body)
	}
	if body["entity_id"] != "q1" {
		t.Errorf("entity_id = %v", body["entity_id"])
	}
	records, _ := body["records"].([]any)
	if len(records) != 1 { // only r1 is a stored record; q1 was a query
		t.Errorf("entity records = %v, want just r1", records)
	}

	// Stats reflect the flow.
	resp, body = getJSON(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", resp.StatusCode)
	}
	if body["records"].(float64) != 3 || body["resolves"].(float64) != 1 {
		t.Errorf("stats = %v", body)
	}
	if body["entities"].(float64) != 3 { // {q1,r1}, {r2}, {r3}
		t.Errorf("entities = %v, want 3", body["entities"])
	}
	if _, ok := body["engine"].(map[string]any); !ok {
		t.Errorf("stats missing engine block: %v", body)
	}
}

// TestAPIVersioning pins the /v1 surface: the prefixed routes are the
// only ones, and a bare pre-v1 path answers 404.
func TestAPIVersioning(t *testing.T) {
	srv := newTestServer(t)
	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/records = %d: %v", resp.StatusCode, body)
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", resp.StatusCode)
	}
	for _, path := range []string{"/stats", "/entities/r1", "/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/records", "/resolve"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(seedBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv := newTestServer(t)

	resp, _ := postJSON(t, srv.URL+"/v1/records", `{"records":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ingest = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/records", `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", resp.StatusCode)
	}
	if _, body := postJSON(t, srv.URL+"/v1/records", seedBody); body["added"].(float64) != 3 {
		t.Fatalf("seed failed: %v", body)
	}
	resp, body := postJSON(t, srv.URL+"/v1/records",
		`{"records":[{"id":"r1","attrs":[{"name":"title","value":"again"}]}]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate ingest = %d, want 409: %v", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/resolve", `{"attrs":[{"name":"title","value":"no id"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("resolve without ID = %d, want 400", resp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/entities/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown entity = %d, want 404", resp.StatusCode)
	}
	// Wrong methods fall through to 405 via the method-scoped mux.
	resp, err := http.Get(srv.URL + "/v1/resolve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /resolve = %d, want 405", resp.StatusCode)
	}
}

// TestServerPersistenceAcrossRestart is the serving-side durability
// flow: ingest and resolve against a persistent store, shut it down
// the way main does (drain, then Close), bring up a second server on
// the same directory, and expect the state — and the already-paid
// LLM decisions — to be there.
func TestServerPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*llm4em.Store, *httptest.Server) {
		model, err := llm4em.NewModel(llm4em.GPTMini)
		if err != nil {
			t.Fatal(err)
		}
		store, err := llm4em.OpenStore(model, llm4em.StoreOptions{
			Domain:     llm4em.Product,
			PersistDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newHandler(handlerConfig{store: store}))
		return store, srv
	}

	store, srv := open()
	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v", body)
	}
	resolveBody := `{"id":"q1","attrs":[{"name":"title","value":"Sony DSC-120B Cybershot camera (black)"},{"name":"price","value":"351.00"}]}`
	if resp, body := postJSON(t, srv.URL+"/v1/resolve", resolveBody); resp.StatusCode != http.StatusOK || body["matched"] != true {
		t.Fatalf("resolve: %v", body)
	}
	_, body := getJSON(t, srv.URL+"/v1/stats")
	persistBlock, _ := body["persist"].(map[string]any)
	if persistBlock == nil || persistBlock["enabled"] != true || persistBlock["wal_entries"].(float64) == 0 {
		t.Fatalf("stats persist block = %v", persistBlock)
	}
	// Graceful shutdown: drain, then flush + final snapshot.
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	_, srv2 := open()
	defer srv2.Close()
	_, body = getJSON(t, srv2.URL+"/v1/stats")
	if body["records"].(float64) != 3 || body["resolves"].(float64) != 1 {
		t.Fatalf("recovered stats = %v", body)
	}
	pb, _ := body["persist"].(map[string]any)
	if pb["recovered_records"].(float64) != 3 || pb["recovered_resolves"].(float64) != 1 {
		t.Errorf("recovery counters = %v", pb)
	}
	if pb["journal_bytes"].(float64) <= 0 || pb["recovered_decisions"].(float64) == 0 {
		t.Errorf("journal.log not recovered: %v", pb)
	}
	// The pre-restart merge survived.
	resp, body := getJSON(t, srv2.URL+"/v1/entities/r1")
	if resp.StatusCode != http.StatusOK || body["entity_id"] != "q1" {
		t.Errorf("recovered entity = %v", body)
	}
	// Re-resolving the same query replays the journal: no LLM pairs.
	_, body = postJSON(t, srv2.URL+"/v1/resolve", resolveBody)
	cost, _ := body["cost"].(map[string]any)
	if cost["llm_pairs"].(float64) != 0 || cost["journal_hits"].(float64) == 0 {
		t.Errorf("re-resolve cost after restart = %v", cost)
	}
	decisions, _ := body["decisions"].([]any)
	for _, d := range decisions {
		if d.(map[string]any)["journaled"] != true {
			t.Errorf("decision not journaled after restart: %v", d)
		}
	}
}

// TestServerConcurrentResolves drives the handler with parallel
// requests — the serving scenario the store's sharding exists for.
func TestServerConcurrentResolves(t *testing.T) {
	srv := newTestServer(t)
	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v", body)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			body := fmt.Sprintf(
				`{"id":"q%d","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`, i)
			resp, err := http.Post(srv.URL+"/v1/resolve", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_, body := getJSON(t, srv.URL+"/v1/stats")
	if body["resolves"].(float64) != 8 {
		t.Errorf("resolves = %v, want 8", body["resolves"])
	}
	// All eight queries joined r1's entity.
	_, body = getJSON(t, srv.URL+"/v1/entities/r1")
	if members := body["members"].([]any); len(members) != 9 {
		t.Errorf("entity has %d members, want 9", len(members))
	}
}

// TestServerDispatchStats: a dispatcher-enabled store serves
// concurrent resolves through batched prompts and reports the batch
// counters under /stats "dispatch"; shutdown via store.Close drains
// cleanly.
func TestServerDispatchStats(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	store := llm4em.NewStore(model, llm4em.StoreOptions{
		Domain:        llm4em.Product,
		DispatchPairs: 8,
	})
	srv := httptest.NewServer(newHandler(handlerConfig{store: store}))
	t.Cleanup(srv.Close)

	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v", body)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			body := fmt.Sprintf(
				`{"id":"q%d","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`, i)
			resp, err := http.Post(srv.URL+"/v1/resolve", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	_, body := getJSON(t, srv.URL+"/v1/stats")
	dispatch, ok := body["dispatch"].(map[string]any)
	if !ok {
		t.Fatalf("stats carry no dispatch block: %v", body)
	}
	if dispatch["enabled"] != true {
		t.Errorf("dispatch.enabled = %v, want true", dispatch["enabled"])
	}
	if body["resolves"].(float64) != 8 {
		t.Errorf("resolves = %v, want 8", body["resolves"])
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close dispatcher-enabled store: %v", err)
	}
}

// TestMetricsHealthReady covers the observability endpoints: the
// Prometheus exposition populates after traffic, readiness flips with
// the gate, health degrades once the store is closed, and every
// response carries an X-Request-ID.
func TestMetricsHealthReady(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	tel := llm4em.NewTelemetry(llm4em.TelemetryOptions{})
	store := llm4em.NewStore(model, llm4em.StoreOptions{
		Domain:        llm4em.Product,
		DispatchPairs: 8,
		Telemetry:     tel,
	})
	ready := &atomic.Bool{}
	srv := httptest.NewServer(newHandler(handlerConfig{store: store, tel: tel, ready: ready}))
	t.Cleanup(srv.Close)

	// Not ready until the gate flips; healthy the whole time.
	resp, _ := getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before gate = %d, want 503", resp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	ready.Store(true)
	resp, _ = getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after gate = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}

	// Inbound request IDs are propagated.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-from-lb")
	echoResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	echoResp.Body.Close()
	if got := echoResp.Header.Get("X-Request-ID"); got != "trace-from-lb" {
		t.Errorf("X-Request-ID = %q, want propagated trace-from-lb", got)
	}

	// Drive traffic so the store-level families populate.
	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v", body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve: %v", body)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(raw)
	for _, want := range []string{
		"# TYPE em_resolve_total counter",
		"# TYPE em_resolve_stage_seconds histogram",
		`em_resolve_stage_seconds_bucket{stage="block",le="+Inf"}`,
		`em_cascade_outcomes_total{outcome="accept"}`,
		"em_blocking_queries_total",
		"# TYPE em_http_request_seconds histogram",
		`em_http_responses_total{class="2xx",route="resolve"} 1`,
		"em_resolve_total 1",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every non-comment line is "name{labels} value" with a numeric value.
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Closing the dispatcher-enabled store degrades health and
	// readiness.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after close = %d, want 503", resp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after close = %d, want 503", resp.StatusCode)
	}
}

// TestStatsTelemetryBlock: /stats surfaces the telemetry counters and
// is marked uncacheable.
func TestStatsTelemetryBlock(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	tel := llm4em.NewTelemetry(llm4em.TelemetryOptions{})
	store := llm4em.NewStore(model, llm4em.StoreOptions{Domain: llm4em.Product, Telemetry: tel})
	srv := httptest.NewServer(newHandler(handlerConfig{store: store, tel: tel}))
	t.Cleanup(srv.Close)

	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v", body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve: %v", body)
	}
	resp, body := getJSON(t, srv.URL+"/v1/stats")
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	telBlock, _ := body["telemetry"].(map[string]any)
	if telBlock == nil || telBlock["enabled"] != true {
		t.Fatalf("stats telemetry block = %v", telBlock)
	}
	if telBlock["resolve_total"].(float64) != 1 {
		t.Errorf("telemetry.resolve_total = %v, want 1", telBlock["resolve_total"])
	}
	if telBlock["resolve_p95_ms"].(float64) <= 0 {
		t.Errorf("telemetry.resolve_p95_ms = %v, want > 0", telBlock["resolve_p95_ms"])
	}

	// Concurrent scrapers share snapshots without erroring.
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/v1/stats")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddRecordsBodyShapes covers the bulk-ingest body forms: bare
// JSON array, single object and NDJSON all route through AddBatch.
func TestAddRecordsBodyShapes(t *testing.T) {
	srv := newTestServer(t)

	// Bare JSON array.
	resp, body := postJSON(t, srv.URL+"/v1/records",
		`[{"id":"a1","attrs":[{"name":"title","value":"sony camera"}]},
		  {"id":"a2","attrs":[{"name":"title","value":"epson printer"}]}]`)
	if resp.StatusCode != http.StatusOK || body["added"].(float64) != 2 {
		t.Fatalf("array body: %d %v", resp.StatusCode, body)
	}

	// Single record object.
	resp, body = postJSON(t, srv.URL+"/v1/records",
		`{"id":"a3","attrs":[{"name":"title","value":"makita drill"}]}`)
	if resp.StatusCode != http.StatusOK || body["added"].(float64) != 1 {
		t.Fatalf("single-object body: %d %v", resp.StatusCode, body)
	}

	// NDJSON.
	nd := `{"id":"a4","attrs":[{"name":"title","value":"canon eos camera"}]}
{"id":"a5","attrs":[{"name":"title","value":"bose soundlink speaker"}]}
`
	httpResp, err := http.Post(srv.URL+"/v1/records", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	body = decodeBody(t, httpResp)
	if httpResp.StatusCode != http.StatusOK || body["added"].(float64) != 2 {
		t.Fatalf("ndjson body: %d %v", httpResp.StatusCode, body)
	}
	if body["records"].(float64) != 5 {
		t.Fatalf("store holds %v records, want 5", body["records"])
	}

	// A batch with an in-batch duplicate is rejected atomically.
	resp, body = postJSON(t, srv.URL+"/v1/records",
		`[{"id":"d1","attrs":[{"name":"title","value":"x"}]},
		  {"id":"d1","attrs":[{"name":"title","value":"y"}]}]`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-batch duplicate: status %d, want 409 (%v)", resp.StatusCode, body)
	}
	if _, getOne := getJSON(t, srv.URL+"/v1/entities/d1"); getOne["error"] == nil {
		t.Fatal("rejected batch leaked a record into the store")
	}
}

// TestRequestBodyBounds: a body past its bound is answered 413 on every
// decode path — JSON array, NDJSON stream, resolve — and adds nothing
// to the store, the NDJSON records decoded before the bound was hit
// included.
func TestRequestBodyBounds(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	store := llm4em.NewStore(model, llm4em.StoreOptions{Domain: llm4em.Product})
	h := newHandler(handlerConfig{store: store})
	record := func(id string, valueBytes int) string {
		return fmt.Sprintf(`{"id":%q,"attrs":[{"name":"title","value":%q}]}`, id, strings.Repeat("x", valueBytes))
	}
	var ndjson strings.Builder
	for i := 0; ndjson.Len() <= maxRecordsBody; i++ {
		ndjson.WriteString(record(fmt.Sprintf("n%d", i), 1<<20) + "\n")
	}
	for _, tc := range []struct {
		name, path, contentType, body string
	}{
		{"json-array", "/v1/records", "application/json", "[" + record("big", maxRecordsBody) + "]"},
		{"ndjson", "/v1/records", "application/x-ndjson", ndjson.String()},
		{"resolve", "/v1/resolve", "application/json", record("q", maxResolveBody)},
	} {
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body = %d, want 413 (%s)", tc.name, len(tc.body), rec.Code, rec.Body.String())
		}
		if n := store.Len(); n != 0 {
			t.Errorf("%s: store holds %d records after a rejected body", tc.name, n)
		}
	}
	// The bound is not a ban on large bodies: one just under it passes.
	req := httptest.NewRequest("POST", "/v1/resolve", strings.NewReader(record("q", maxResolveBody/2)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("half-bound resolve body = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

// TestStatsMemoryBlock: /v1/stats and /v1/metrics say what the process
// holds in memory. Three stored records, one resolve that merges q1
// with r1: the entity graph holds those two IDs only, while r2 — never
// part of a resolve — still answers as its own entity.
func TestStatsMemoryBlock(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	tel := llm4em.NewTelemetry(llm4em.TelemetryOptions{})
	store := llm4em.NewStore(model, llm4em.StoreOptions{Domain: llm4em.Product, Telemetry: tel})
	srv := httptest.NewServer(newHandler(handlerConfig{store: store, tel: tel}))
	t.Cleanup(srv.Close)

	if resp, body := postJSON(t, srv.URL+"/v1/records", seedBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v", body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`); resp.StatusCode != http.StatusOK || body["entity_id"] != "q1" || body["matched"] != true {
		t.Fatalf("resolve: %d %v", resp.StatusCode, body)
	}
	_, body := getJSON(t, srv.URL+"/v1/stats")
	mem, _ := body["memory"].(map[string]any)
	if mem == nil {
		t.Fatalf("stats has no memory block: %v", body)
	}
	if mem["graph_ids"].(float64) != 2 || mem["extractions_cached"].(float64) != 3 || mem["journal_entries"].(float64) != 0 {
		t.Errorf("memory block = %v, want graph_ids 2, extractions_cached 3, journal_entries 0", mem)
	}
	if mem["heap_alloc_bytes"].(float64) <= 0 {
		t.Errorf("memory.heap_alloc_bytes = %v, want > 0", mem["heap_alloc_bytes"])
	}
	if body["entities"].(float64) != 3 { // {q1,r1}, r2, r3
		t.Errorf("entities = %v, want 3", body["entities"])
	}
	resp, ent := getJSON(t, srv.URL+"/v1/entities/r2")
	if members, _ := ent["members"].([]any); resp.StatusCode != http.StatusOK || len(members) != 1 || members[0] != "r2" {
		t.Errorf("GET /v1/entities/r2 = %d %v, want the implicit singleton [r2]", resp.StatusCode, ent)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE em_heap_alloc_bytes gauge", "\nem_graph_ids 2\n", "\nem_http_panics_total 0\n"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPanicRecovery: a handler that panics answers 500 with the JSON
// error body, is counted and logged once with its request ID and
// stack, and the server goes on serving — the next request on the same
// connection pool answers 200.
func TestPanicRecovery(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	tel := llm4em.NewTelemetry(llm4em.TelemetryOptions{})
	var logged bytes.Buffer
	ready := &atomic.Bool{}
	ready.Store(true)
	s := &server{
		store: llm4em.NewStore(model, llm4em.StoreOptions{Domain: llm4em.Product}),
		tel:   tel,
		log:   slog.New(slog.NewJSONHandler(&logged, nil)),
		ready: ready,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/boom", s.instrument("boom", func(http.ResponseWriter, *http.Request) {
		var m map[string]int
		m["nil map write"] = 1
	}))
	mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.healthz))
	srv := httptest.NewServer(s.recoverPanics(mux))
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest("GET", srv.URL+"/v1/boom", nil)
	req.Header.Set("X-Request-ID", "trace-of-the-panic")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("panicking request got no response: %v", err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError || body["error"] != "internal error" {
		t.Errorf("panicking request = %d %v, want 500 with the JSON error body", resp.StatusCode, body)
	}
	if resp, body := getJSON(t, srv.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("request after the panic = %d %v, want 200", resp.StatusCode, body)
	}

	var exposition strings.Builder
	if err := tel.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exposition.String(), "\nem_http_panics_total 1\n") {
		t.Error("em_http_panics_total did not count the panic")
	}
	var line map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logged.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("log line %q: %v", l, err)
		}
		if m["msg"] == "handler panic" {
			if line != nil {
				t.Error("panic logged more than once")
			}
			line = m
		}
	}
	if line == nil {
		t.Fatalf("no panic log line in %q", logged.String())
	}
	stack, _ := line["stack"].(string)
	if line["level"] != "ERROR" || line["trace_id"] != "trace-of-the-panic" ||
		!strings.Contains(fmt.Sprint(line["panic"]), "nil map") || !strings.Contains(stack, "TestPanicRecovery") {
		t.Errorf("panic log line = %v, want level ERROR, the request ID, the panic value and a stack through the handler", line)
	}
}
