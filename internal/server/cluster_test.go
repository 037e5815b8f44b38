package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protemp"
	"protemp/api"
	"protemp/client"
	"protemp/internal/cluster"
)

// clientFor builds a typed client pointed at one test node.
func clientFor(nd *testNode) (*client.Client, error) {
	return client.New(nd.ts.URL)
}

// testNode is one member of a loopback test cluster: its own engine,
// server and listener, wired to the others through the real client.
type testNode struct {
	srv *Server
	ts  *httptest.Server
	eng *protemp.Engine
	clu *cluster.Cluster
}

// newTestCluster boots n nodes on loopback listeners. The listeners
// are created unstarted first so every member knows the full peer list
// before any engine exists, mirroring the -self/-peers flag flow.
func newTestCluster(t testing.TB, n int, adm cluster.AdmissionConfig) []*testNode {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		clu, err := cluster.New(cluster.Config{
			Self:            urls[i],
			Peers:           urls,
			BreakerCooldown: 100 * time.Millisecond,
			RetryBackoff:    5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := testClusterEngine(t, protemp.WithTableFetcher(clu.TableFetcher()))
		srv, err := New(Config{Engine: eng, Cluster: clu, Admission: adm, SessionTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		servers[i].Config = &http.Server{Handler: srv.Handler()}
		servers[i].Start()
		nodes[i] = &testNode{srv: srv, ts: servers[i], eng: eng, clu: clu}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
		}
	})
	return nodes
}

// testClusterEngine matches fastEngine but takes a testing.TB so the
// benchmarks can share it.
func testClusterEngine(t testing.TB, extra ...protemp.Option) *protemp.Engine {
	t.Helper()
	opts := append([]protemp.Option{
		protemp.WithWindow(1e-3, 100),
		protemp.WithTableGrid([]float64{47, 100}, []float64{250e6, 500e6, 750e6}),
	}, extra...)
	e, err := protemp.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// createOwnedBy creates sessions through via until the ring lands one
// on the wanted owner node, deleting the misses. The id is random, so
// a handful of tries suffices with two or three members.
func createOwnedBy(t *testing.T, via *testNode, owner string, mode string) api.SessionInfo {
	t.Helper()
	for i := 0; i < 64; i++ {
		var info api.SessionInfo
		resp := postJSON(t, via.ts.URL+"/v1/sessions", api.SessionCreateRequest{Mode: mode}, &info)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: status %d", resp.StatusCode)
		}
		if info.Node == owner {
			return info
		}
		deleteReq(t, via.ts.URL+"/v1/sessions/"+info.ID)
	}
	t.Fatalf("no session landed on %s in 64 tries", owner)
	return api.SessionInfo{}
}

// TestClusterProxiedSessionLifecycle drives a full session lifecycle
// through the NON-owner node: the create, stat, step and delete must
// all transparently proxy to the owner, and the proxy must be a
// single hop (a forwarded request is always served locally).
func TestClusterProxiedSessionLifecycle(t *testing.T) {
	nodes := newTestCluster(t, 2, cluster.AdmissionConfig{})
	a, b := nodes[0], nodes[1]

	// A session owned by B, driven entirely through A.
	info := createOwnedBy(t, a, b.clu.Self(), "table")
	if info.Mode != "table" || info.Degraded {
		t.Fatalf("info %+v", info)
	}

	// The session lives on B, not A.
	if got := b.srv.sessions.Len(); got != 1 {
		t.Fatalf("owner holds %d sessions", got)
	}
	if got := a.srv.sessions.Len(); got != 0 {
		t.Fatalf("non-owner holds %d sessions", got)
	}

	// Stat through A: proxied to B, reports B as the node.
	var stat api.SessionInfo
	getJSON(t, a.ts.URL+"/v1/sessions/"+info.ID, &stat)
	if stat.ID != info.ID || stat.Node != b.clu.Self() {
		t.Fatalf("stat %+v", stat)
	}

	// Step through A.
	var step api.StepResponse
	resp := postJSON(t, a.ts.URL+"/v1/sessions/"+info.ID+"/step",
		api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}, &step)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied step: status %d", resp.StatusCode)
	}
	if len(step.FreqsHz) == 0 {
		t.Fatalf("proxied step %+v", step)
	}
	getJSON(t, a.ts.URL+"/v1/sessions/"+info.ID, &stat)
	if stat.Steps != 1 {
		t.Fatalf("step not applied on the owner: %+v", stat)
	}

	// Single hop: a forwarded request for a B-owned session hitting A
	// must NOT be proxied again — A answers locally (404).
	req, err := http.NewRequest(http.MethodGet, a.ts.URL+"/v1/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderForwarded, "1")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusNotFound {
		t.Fatalf("forwarded request re-proxied: status %d", fresp.StatusCode)
	}

	// Delete through A removes it on B.
	if resp := deleteReq(t, a.ts.URL+"/v1/sessions/"+info.ID); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("proxied delete: status %d", resp.StatusCode)
	}
	if got := b.srv.sessions.Len(); got != 0 {
		t.Fatalf("owner still holds %d sessions after delete", got)
	}

	snap := a.clu.Registry().Snapshot()
	if snap["cluster_proxied_requests"] < 4 {
		t.Fatalf("proxied counter %d", snap["cluster_proxied_requests"])
	}
	if snap["cluster_proxy_errors"] != 0 {
		t.Fatalf("proxy errors %d", snap["cluster_proxy_errors"])
	}
}

// TestClusterProxiedStream relays a co-simulated NDJSON stream through
// the non-owner: window lines and the closing summary must arrive
// untouched.
func TestClusterProxiedStream(t *testing.T) {
	nodes := newTestCluster(t, 2, cluster.AdmissionConfig{})
	a, b := nodes[0], nodes[1]

	info := createOwnedBy(t, a, b.clu.Self(), "table")
	windows, summary := streamWindowLines(t, a.ts.URL, info.ID, api.StreamRequest{Windows: 3, Seed: 1})
	if len(windows) == 0 {
		t.Fatal("no window lines relayed")
	}
	if summary.Summary.Windows != len(windows) {
		t.Fatalf("summary %+v for %d windows", summary.Summary, len(windows))
	}
	// The windows were simulated on the owner.
	var stat api.SessionInfo
	getJSON(t, a.ts.URL+"/v1/sessions/"+info.ID, &stat)
	if stat.Steps == 0 || stat.Node != b.clu.Self() {
		t.Fatalf("owner stats %+v", stat)
	}
}

// httpReply is the part of an HTTP response the relay must carry over
// from the owner.
type httpReply struct {
	status            int
	ctype, retryAfter string
	body              string
}

// rawDo sends one request and returns its reply.
func rawDo(t *testing.T, method, url, body string, header ...string) httpReply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpReply{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), string(raw)}
}

// TestClusterRelayPassesOwnerRefusals: the owner's 404, 400 and 429
// reach a client of the non-owner exactly as the owner sent them —
// status, Content-Type, Retry-After and JSON body — and none of them
// counts against the owner's breaker.
func TestClusterRelayPassesOwnerRefusals(t *testing.T) {
	nodes := newTestCluster(t, 2, cluster.AdmissionConfig{
		MaxConcurrentSteps: 1,
		StepQueueDepth:     0,
		RetryAfter:         2 * time.Second,
	})
	a, b := nodes[0], nodes[1]
	// same sends one request to the owner and then through the
	// non-owner, and requires equal replies with the wanted status.
	same := func(what, method, path, body string, want int) {
		t.Helper()
		direct := rawDo(t, method, b.ts.URL+path, body)
		relayed := rawDo(t, method, a.ts.URL+path, body)
		if direct.status != want {
			t.Fatalf("%s on the owner: %+v, want status %d", what, direct, want)
		}
		if relayed != direct {
			t.Fatalf("%s through the non-owner: %+v, owner answered %+v", what, relayed, direct)
		}
	}
	step := `{"max_core_temp_c":60,"required_freq_hz":5e8}`

	// 429 + Retry-After: the owner's only solver slot is taken.
	online := createOwnedBy(t, a, b.clu.Self(), "online")
	release, err := b.srv.admission.AcquireStep(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	same("step with the owner's gate full", http.MethodPost, "/v1/sessions/"+online.ID+"/step", step, http.StatusTooManyRequests)
	release()

	// 400: a malformed step body is judged by the owner.
	table := createOwnedBy(t, a, b.clu.Self(), "table")
	same("malformed step", http.MethodPost, "/v1/sessions/"+table.ID+"/step", `{"max_core_temp_c":"hot"}`, http.StatusBadRequest)

	// 404: a deleted session, for every relayed route.
	if r := rawDo(t, http.MethodDelete, a.ts.URL+"/v1/sessions/"+table.ID, ""); r.status != http.StatusNoContent {
		t.Fatalf("relayed delete: %+v", r)
	}
	path := "/v1/sessions/" + table.ID
	same("get of a deleted session", http.MethodGet, path, "", http.StatusNotFound)
	same("step on a deleted session", http.MethodPost, path+"/step", step, http.StatusNotFound)
	same("stream on a deleted session", http.MethodPost, path+"/stream", `{"windows":1}`, http.StatusNotFound)
	same("delete of a deleted session", http.MethodDelete, path, "", http.StatusNotFound)

	if got := a.clu.Registry().Snapshot()["cluster_proxy_errors"]; got != 0 {
		t.Fatalf("owner refusals counted as %d proxy errors", got)
	}
}

// relayFront boots one real node whose only peer is owner, a stand-in
// for the session owner, and returns the node and a session id the
// ring assigns to owner. adjust, when non-nil, edits the node's
// cluster and server configuration before it starts.
func relayFront(t *testing.T, owner http.Handler, adjust func(*cluster.Config, *Config)) (*testNode, string) {
	t.Helper()
	ots := httptest.NewServer(owner)
	t.Cleanup(ots.Close)
	ts := httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	cc := cluster.Config{Self: self, Peers: []string{self, ots.URL}, RetryBackoff: 5 * time.Millisecond}
	sc := Config{Engine: testClusterEngine(t), SessionTTL: time.Minute}
	if adjust != nil {
		adjust(&cc, &sc)
	}
	clu, err := cluster.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Cluster = clu
	srv, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	ts.Config = &http.Server{Handler: srv.Handler()}
	ts.Start()
	t.Cleanup(ts.Close)
	nd := &testNode{srv: srv, ts: ts, eng: sc.Engine, clu: clu}
	for i := 0; ; i++ {
		id := fmt.Sprintf("relayed-%d", i)
		if _, remote := clu.SessionOwner(id); remote {
			return nd, id
		}
	}
}

// countingOwner answers every request with status and a JSON body and
// counts the requests that reached it.
func countingOwner(status int, body string, hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, body)
	})
}

// TestClusterRelayBreakerOpen: with the owner's breaker open the
// non-owner answers 503 Retry-After: 1 itself, calls nobody, and
// counts the refusal.
func TestClusterRelayBreakerOpen(t *testing.T) {
	var hits atomic.Int64
	nd, id := relayFront(t, countingOwner(http.StatusOK, `{}`, &hits), func(cc *cluster.Config, _ *Config) {
		cc.BreakerThreshold = 1
		cc.BreakerCooldown = time.Hour
	})
	p, _ := nd.clu.SessionOwner(id)
	p.Breaker().Failure()
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		r := rawDo(t, method, nd.ts.URL+"/v1/sessions/"+id, "")
		if r.status != http.StatusServiceUnavailable || r.retryAfter != "1" {
			t.Fatalf("%s with the breaker open: %+v", method, r)
		}
	}
	if r := rawDo(t, http.MethodPost, nd.ts.URL+"/v1/sessions/"+id+"/step", `{}`); r.status != http.StatusServiceUnavailable {
		t.Fatalf("step with the breaker open: %+v", r)
	}
	snap := nd.clu.Registry().Snapshot()
	if hits.Load() != 0 || snap["cluster_proxied_requests"] != 0 {
		t.Fatalf("open breaker still called the owner: %d hits, %d proxied", hits.Load(), snap["cluster_proxied_requests"])
	}
	if snap["cluster_breaker_rejected"] != 3 {
		t.Fatalf("cluster_breaker_rejected = %d, want 3", snap["cluster_breaker_rejected"])
	}
}

// TestClusterRelayBodyLimit: a body over MaxBodyBytes is refused by
// the entry node before any peer is called; one under it is relayed.
func TestClusterRelayBodyLimit(t *testing.T) {
	var hits atomic.Int64
	nd, id := relayFront(t, countingOwner(http.StatusOK, `{"freqs_hz":[1],"steps":1}`, &hits), func(_ *cluster.Config, sc *Config) {
		sc.MaxBodyBytes = 512
	})
	url := nd.ts.URL + "/v1/sessions/" + id + "/step"
	big := `{"block_temps_c":[` + strings.Repeat("60,", 300) + `60]}`
	if r := rawDo(t, http.MethodPost, url, big); r.status != http.StatusBadRequest || !strings.Contains(r.body, "too large") {
		t.Fatalf("oversized step body: %+v", r)
	}
	if hits.Load() != 0 || nd.clu.Registry().Snapshot()["cluster_proxied_requests"] != 0 {
		t.Fatalf("oversized body reached the owner (%d hits)", hits.Load())
	}
	if r := rawDo(t, http.MethodPost, url, `{"max_core_temp_c":60}`); r.status != http.StatusOK || r.body != `{"freqs_hz":[1],"steps":1}` {
		t.Fatalf("small step body: %+v", r)
	}
	if hits.Load() != 1 || nd.clu.Registry().Snapshot()["cluster_proxied_requests"] != 1 {
		t.Fatalf("small body: %d hits", hits.Load())
	}
}

// TestClusterRelayOwnerFailures: an owner 5xx is relayed as sent, and
// an owner lost mid-reply becomes this node's 503; both count as
// breaker failures.
func TestClusterRelayOwnerFailures(t *testing.T) {
	var hits atomic.Int64
	nd, id := relayFront(t, countingOwner(http.StatusServiceUnavailable, `{"error":"draining"}`, &hits), nil)
	r := rawDo(t, http.MethodPost, nd.ts.URL+"/v1/sessions/"+id+"/step", `{}`)
	if r.status != http.StatusServiceUnavailable || r.body != `{"error":"draining"}` || r.ctype != "application/json" {
		t.Fatalf("owner 503 relayed as %+v", r)
	}
	if got := nd.clu.Registry().Snapshot()["cluster_proxy_errors"]; got != 1 {
		t.Fatalf("cluster_proxy_errors = %d after an owner 503, want 1", got)
	}

	truncating := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, `{"freqs_hz":[`)
	})
	nd, id = relayFront(t, truncating, nil)
	r = rawDo(t, http.MethodPost, nd.ts.URL+"/v1/sessions/"+id+"/step", `{}`)
	if r.status != http.StatusServiceUnavailable || r.retryAfter != "1" || !strings.Contains(r.body, "owner unreachable") {
		t.Fatalf("owner lost mid-reply relayed as %+v", r)
	}
	if got := nd.clu.Registry().Snapshot()["cluster_proxy_errors"]; got != 1 {
		t.Fatalf("cluster_proxy_errors = %d after a truncated reply, want 1", got)
	}
}

// TestClusterRelayStreamFlushesLive: the owner holds its summary line
// back until the client of the non-owner has read the first window
// line, so the relay must flush each read rather than buffer the
// stream.
func TestClusterRelayStreamFlushesLive(t *testing.T) {
	proceed := make(chan struct{})
	var summaryWritten atomic.Bool
	owner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"window":1}`+"\n")
		w.(http.Flusher).Flush()
		select {
		case <-proceed:
		case <-time.After(2 * time.Second):
		}
		summaryWritten.Store(true)
		io.WriteString(w, `{"summary":{"windows":1}}`+"\n")
	})
	nd, id := relayFront(t, owner, nil)
	resp, err := http.Post(nd.ts.URL+"/v1/sessions/"+id+"/stream", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	first, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if summaryWritten.Load() {
		t.Fatal("first window line arrived only after the owner wrote its summary")
	}
	close(proceed)
	rest, _ := io.ReadAll(rd)
	if first != `{"window":1}`+"\n" || string(rest) != `{"summary":{"windows":1}}`+"\n" {
		t.Fatalf("relayed stream %q then %q", first, rest)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("relayed stream content type %q", ct)
	}
}

// TestSessionCreateRejectsOnlineField: the retired `online` boolean is
// an unknown field like any other. A single node, either member of a
// cluster (the entry node refuses it before a new id picks an owner)
// and a forwarded create all answer 400 naming it, and no session is
// made or relayed.
func TestSessionCreateRejectsOnlineField(t *testing.T) {
	check := func(what string, r httpReply) {
		t.Helper()
		var e api.Error
		if r.status != http.StatusBadRequest || json.Unmarshal([]byte(r.body), &e) != nil ||
			!strings.Contains(e.Message, `unknown field "online"`) {
			t.Fatalf("%s: %+v", what, r)
		}
	}
	srv, ts := newTestServer(t, fastEngine(t))
	check("single node", rawDo(t, http.MethodPost, ts.URL+"/v1/sessions", `{"online":true}`))
	if srv.SessionCount() != 0 {
		t.Fatal("single node made a session")
	}

	nodes := newTestCluster(t, 2, cluster.AdmissionConfig{})
	for i, nd := range nodes {
		check(fmt.Sprintf("cluster node %d", i), rawDo(t, http.MethodPost, nd.ts.URL+"/v1/sessions", `{"online":true}`))
		check(fmt.Sprintf("forwarded to node %d", i), rawDo(t, http.MethodPost, nd.ts.URL+"/v1/sessions",
			`{"online":true,"id":"pinned"}`, api.HeaderForwarded, "1"))
	}
	for i, nd := range nodes {
		if nd.srv.SessionCount() != 0 || nd.clu.Registry().Snapshot()["cluster_proxied_requests"] != 0 {
			t.Fatalf("node %d made or relayed a session", i)
		}
	}
}

// TestClusterTableColdStartExactlyOnce hits both nodes with the same
// table spec concurrently on a cold cluster: the owner generates the
// grid exactly once and the other node fetches it over the peer tier,
// so the cluster-wide Phase-1 generation count is 1.
func TestClusterTableColdStartExactlyOnce(t *testing.T) {
	nodes := newTestCluster(t, 2, cluster.AdmissionConfig{})

	var wg sync.WaitGroup
	responses := make([]api.TablesResponse, len(nodes))
	errs := make([]int, len(nodes))
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *testNode) {
			defer wg.Done()
			resp := postJSON(t, nd.ts.URL+"/v1/tables", api.TablesRequest{Variant: "variable"}, &responses[i])
			errs[i] = resp.StatusCode
		}(i, nd)
	}
	wg.Wait()
	for i, code := range errs {
		if code != http.StatusOK {
			t.Fatalf("node %d: status %d", i, code)
		}
	}
	if responses[0].Key == "" || responses[0].Key != responses[1].Key {
		t.Fatalf("keys diverge: %q vs %q", responses[0].Key, responses[1].Key)
	}

	var generations, fetches uint64
	for _, nd := range nodes {
		stats := nd.eng.CacheStats()
		generations += stats.Generations
		fetches += stats.FetchHits
	}
	if generations != 1 {
		t.Fatalf("cluster-wide generations = %d, want exactly 1", generations)
	}
	if fetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", fetches)
	}

	// The non-owner counted the peer hit; the surface the smoke test
	// scrapes must agree.
	var hits uint64
	for _, nd := range nodes {
		hits += nd.clu.Registry().Snapshot()["cluster_peer_table_hits"]
		var m map[string]uint64
		getJSON(t, nd.ts.URL+"/metrics", &m)
		if _, ok := m["cluster_peers"]; !ok {
			t.Fatal("cluster counters missing from /metrics")
		}
	}
	if hits != 1 {
		t.Fatalf("cluster_peer_table_hits = %d, want 1", hits)
	}
}

// TestClusterTableGetUnknown404 covers the peer-tier miss path: a key
// no node can regenerate answers 404, not a generation.
func TestClusterTableGetUnknown404(t *testing.T) {
	nodes := newTestCluster(t, 2, cluster.AdmissionConfig{})
	resp, err := http.Get(nodes[0].ts.URL + "/v1/tables/deadbeefdeadbeefdeadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d", resp.StatusCode)
	}
}

// TestClusterHealthz reports membership on both nodes.
func TestClusterHealthz(t *testing.T) {
	nodes := newTestCluster(t, 3, cluster.AdmissionConfig{})
	for _, nd := range nodes {
		var h api.Health
		getJSON(t, nd.ts.URL+"/healthz", &h)
		if h.Node != nd.clu.Self() || h.Peers != 3 {
			t.Fatalf("healthz %+v", h)
		}
	}
}

// TestOverloadDegradesCreates: with a 1 ns p95 budget and one recorded
// solve, every later online/dmpc create must be admitted degraded —
// a table-mode session flagged degraded:true — and counted.
func TestOverloadDegradesCreates(t *testing.T) {
	engine := fastEngine(t)
	srv, err := New(Config{
		Engine:     engine,
		SessionTTL: time.Minute,
		Admission: cluster.AdmissionConfig{
			StepP95Budget: time.Nanosecond,
			MinSamples:    1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The histogram is cold: the first online create is admitted whole.
	var first api.SessionInfo
	resp := postJSON(t, ts.URL+"/v1/sessions", api.SessionCreateRequest{Mode: "online"}, &first)
	if resp.StatusCode != http.StatusCreated || first.Degraded || first.Mode != "online" {
		t.Fatalf("cold create: status %d info %+v", resp.StatusCode, first)
	}

	// One real solve records a latency sample >> 1 ns.
	var step api.StepResponse
	resp = postJSON(t, ts.URL+"/v1/sessions/"+first.ID+"/step",
		api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}, &step)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup step: status %d", resp.StatusCode)
	}

	// Now over budget: online and dmpc creates degrade to table mode.
	for _, mode := range []string{"online", "dmpc"} {
		var info api.SessionInfo
		resp := postJSON(t, ts.URL+"/v1/sessions", api.SessionCreateRequest{Mode: mode}, &info)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s create under overload: status %d", mode, resp.StatusCode)
		}
		if !info.Degraded || info.Mode != "table" {
			t.Fatalf("%s create not degraded: %+v", mode, info)
		}
	}
	// Table creates are never degraded.
	var tinfo api.SessionInfo
	postJSON(t, ts.URL+"/v1/sessions", api.SessionCreateRequest{Mode: "table"}, &tinfo)
	if tinfo.Degraded {
		t.Fatalf("table create degraded: %+v", tinfo)
	}

	var m map[string]uint64
	getJSON(t, ts.URL+"/metrics", &m)
	if m["cluster_degraded_sessions"] != 2 {
		t.Fatalf("cluster_degraded_sessions = %d", m["cluster_degraded_sessions"])
	}
	if m["cluster_shedding"] != 1 {
		t.Fatalf("cluster_shedding = %d", m["cluster_shedding"])
	}
}

// TestOverloadStepQueue429 saturates a 1-slot, 0-queue step gate with
// a burst of concurrent solver steps: the overflow must be refused
// with 429 + Retry-After, never a 5xx, and successes must still land.
func TestOverloadStepQueue429(t *testing.T) {
	engine := fastEngine(t)
	srv, err := New(Config{
		Engine:     engine,
		SessionTTL: time.Minute,
		Admission: cluster.AdmissionConfig{
			MaxConcurrentSteps: 1,
			StepQueueDepth:     0,
			RetryAfter:         2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var info api.SessionInfo
	if resp := postJSON(t, ts.URL+"/v1/sessions", api.SessionCreateRequest{Mode: "online"}, &info); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	doStep := func() *http.Response {
		body := fmt.Sprintf(`{"max_core_temp_c":60,"required_freq_hz":%g}`, 5e8)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/step",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Pin the single solver slot so the next step deterministically
	// overflows the (empty) queue.
	release, err := srv.admission.AcquireStep(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	resp429 := doStep()
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("step with the gate full: status %d, want 429", resp429.StatusCode)
	}
	if got := resp429.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q", got)
	}

	// Releasing the slot turns the same request into a 200 — the
	// overload path never produced a 5xx.
	release()
	if resp := doStep(); resp.StatusCode != http.StatusOK {
		t.Fatalf("step after release: status %d", resp.StatusCode)
	}

	var m map[string]uint64
	getJSON(t, ts.URL+"/metrics", &m)
	if m["cluster_steps_rejected"] == 0 {
		t.Fatal("rejections not counted")
	}

	// Table-mode steps bypass the solver gate entirely.
	var tinfo api.SessionInfo
	postJSON(t, ts.URL+"/v1/sessions", api.SessionCreateRequest{Mode: "table"}, &tinfo)
	resp := postJSON(t, ts.URL+"/v1/sessions/"+tinfo.ID+"/step",
		api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table step throttled: status %d", resp.StatusCode)
	}
}

// BenchmarkClusterStepLocal / Proxied measure the step path on the
// owner versus one network hop through the non-owner; the delta is
// the cluster's forwarding tax.
func BenchmarkClusterStepLocal(b *testing.B)   { benchClusterStep(b, true) }
func BenchmarkClusterStepProxied(b *testing.B) { benchClusterStep(b, false) }

func benchClusterStep(b *testing.B, local bool) {
	nodes := newTestCluster(b, 2, cluster.AdmissionConfig{})
	a, bb := nodes[0], nodes[1]

	// One session owned by B; drive it from B (local) or A (proxied).
	cl, err := clientFor(bb)
	if err != nil {
		b.Fatal(err)
	}
	var owned api.SessionInfo
	for i := 0; i < 128; i++ {
		info, err := cl.CreateSession(b.Context(), api.SessionCreateRequest{Mode: "table"})
		if err != nil {
			b.Fatal(err)
		}
		if info.Node == bb.clu.Self() {
			owned = info
			break
		}
		cl.DeleteSession(b.Context(), info.ID)
	}
	if owned.ID == "" {
		b.Fatal("no B-owned session")
	}
	via := bb
	if !local {
		via = a
	}
	vcl, err := clientFor(via)
	if err != nil {
		b.Fatal(err)
	}
	req := api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}
	if _, err := vcl.Step(b.Context(), owned.ID, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vcl.Step(b.Context(), owned.ID, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSessionsPerNode2 / 3 measure create+step+delete
// throughput with every request entering through node 0 and the ring
// spreading ownership: the 2→3 node delta is the scale-out curve.
func BenchmarkClusterSessionsPerNode2(b *testing.B) { benchClusterScaleOut(b, 2) }
func BenchmarkClusterSessionsPerNode3(b *testing.B) { benchClusterScaleOut(b, 3) }

func benchClusterScaleOut(b *testing.B, n int) {
	nodes := newTestCluster(b, n, cluster.AdmissionConfig{})
	cl, err := clientFor(nodes[0])
	if err != nil {
		b.Fatal(err)
	}
	// Warm the table so session creates don't pay Phase-1 generation.
	info, err := cl.CreateSession(b.Context(), api.SessionCreateRequest{Mode: "table"})
	if err != nil {
		b.Fatal(err)
	}
	cl.DeleteSession(b.Context(), info.ID)
	req := api.StepRequest{MaxCoreTempC: 60, RequiredFreqHz: 5e8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := cl.CreateSession(b.Context(), api.SessionCreateRequest{Mode: "table"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Step(b.Context(), info.ID, req); err != nil {
			b.Fatal(err)
		}
		if err := cl.DeleteSession(b.Context(), info.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "nodes")
}
