package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"time"

	"protemp"
	"protemp/api"
	"protemp/internal/cluster"
	"protemp/internal/core"
	"protemp/internal/tablestore"
)

// tableWL drives table-mode sessions on a 2-node loopback cluster.
// The client runs cycles of create → stepsPerCycle steps → delete; every step goes to the session's ring owner (table-local) or
// to the other node, which proxies it one hop (table-proxy). The two
// populations are separate workloads so that neither percentile is
// taken over a mix of both.
type tableWL struct {
	cfg     config
	proxied bool

	nodes  []*node
	sweepS float64
	fetchS float64

	states  []protemp.State // deterministic replay
	want    [][]float64     // core.Controller.Decide on each state
	classes map[string]int  // in-grid / downgrade / idle share of the replay
	ctrl    *core.Controller
	table   *core.Table
	checked int // decisions the verify pass compared
}

const (
	replayLen     = 1024 // the replay's state count
	stepsPerCycle = 64   // steps between a session's create and delete
)

func newTableWorkload(cfg config, proxied bool) *tableWL {
	return &tableWL{cfg: cfg, proxied: proxied}
}

func (t *tableWL) setups() int { return 3 }

// tail: a table step takes tens of microseconds, and its p99 is set by
// garbage-collection and host scheduling stalls that move 30–40%
// between runs; p90 stays within a few percent.
func (t *tableWL) tail() float64 { return 0.90 }

// setup cold-starts both nodes and makes both obtain the default-grid
// Phase-1 table: the key's ring owner sweeps it, then the other node
// fetches it from the owner's peer tier.
func (t *tableWL) setup(ctx context.Context, traced bool) (func(), error) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range urls {
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		lns[i], urls[i] = ln, url
	}
	t.nodes = nil
	teardown := func() {
		for _, nd := range t.nodes {
			nd.close()
		}
	}
	for i, url := range urls {
		clu, err := cluster.New(cluster.Config{Self: url, Peers: urls, HTTPClient: newHTTPClient(false)})
		if err != nil {
			teardown()
			return nil, err
		}
		eng, err := protemp.New(protemp.WithWindow(1e-3, 100), protemp.WithTableFetcher(clu.TableFetcher()))
		if err != nil {
			teardown()
			return nil, err
		}
		nd, err := startNode(lns[i], url, eng, clu, cluster.AdmissionConfig{}, traced)
		if err != nil {
			teardown()
			return nil, err
		}
		t.nodes = append(t.nodes, nd)
	}
	eng := t.nodes[0].eng
	key := eng.TableKey(nil, nil, eng.Variant())
	owner, other := t.nodes[0], t.nodes[1]
	if _, remote := owner.clu.TableOwner(key); remote {
		owner, other = other, owner
	}
	start := time.Now()
	if _, err := owner.client.GenerateTable(ctx, api.TablesRequest{KeyOnly: true}); err != nil {
		teardown()
		return nil, fmt.Errorf("sweep on the table owner: %w", err)
	}
	t.sweepS = time.Since(start).Seconds()
	start = time.Now()
	if _, err := other.client.GenerateTable(ctx, api.TablesRequest{KeyOnly: true}); err != nil {
		teardown()
		return nil, fmt.Errorf("peer fetch: %w", err)
	}
	t.fetchS = time.Since(start).Seconds()
	return teardown, nil
}

// prepare builds the replay and its reference decisions from the
// owner's table. Temperatures span the grid and beyond it, required
// frequencies span zero to above fmax, so the replay holds in-grid and
// downgraded decisions.
func (t *tableWL) prepare(ctx context.Context) error {
	table, err := t.nodes[0].eng.GenerateTable(ctx) // a cache hit after setup
	if err != nil {
		return err
	}
	ctrl, err := core.NewController(table)
	if err != nil {
		return err
	}
	t.table, t.ctrl = table, ctrl
	rng := rand.New(rand.NewPCG(uint64(t.cfg.seed), 0x7461626c65))
	fmax := table.FMax
	t.states = make([]protemp.State, replayLen)
	t.want = make([][]float64, replayLen)
	t.classes = map[string]int{}
	for i := range t.states {
		st := protemp.State{MaxCoreTemp: 30 + 75*rng.Float64(), RequiredFreq: 1.05 * fmax * rng.Float64()}
		d := ctrl.Decide(st.MaxCoreTemp, st.RequiredFreq)
		switch {
		case d.Idle:
			t.classes["idle"]++
		case d.Downgraded:
			t.classes["downgrade"]++
		default:
			t.classes["in_grid"]++
		}
		t.states[i], t.want[i] = st, d.Freqs
	}
	// An idle table decision needs a grid row with no feasible entry,
	// which the default grid does not have; the idle count is reported
	// but not required.
	for _, c := range []string{"in_grid", "downgrade"} {
		if t.classes[c] == 0 {
			return fmt.Errorf("replay of seed %d holds no %s decision", t.cfg.seed, c)
		}
	}
	return nil
}

// byName maps a session's owner (SessionInfo.Node) to its node.
func (t *tableWL) byName(name string) (*node, *node, error) {
	for i, nd := range t.nodes {
		if nd.clu.Self() == name {
			return nd, t.nodes[1-i], nil
		}
	}
	return nil, nil, fmt.Errorf("session owner %q is not a cluster member", name)
}

type tableOut struct {
	lat               []float64
	attempted, failed int64
	owners            map[string]int // session id → owner node index
	rtUs, codecUs     []float64
	reqBytes, rspByte int64
}

func (t *tableWL) measure(ctx context.Context, budget time.Duration, traced bool) (*phase, error) {
	if err := t.prepare(ctx); err != nil {
		return nil, err
	}
	p := &phase{}
	m := startMeter()
	o := t.loop(ctx, p, m.start.Add(budget), traced)
	m.stop(p)
	p.lat, p.attempted, p.failed = o.lat, o.attempted, o.failed
	if traced {
		p.layers = t.layers(p, o)
	}
	return p, nil
}

// loop is the client: create → perCycle steps → delete, until the
// deadline.
func (t *tableWL) loop(ctx context.Context, p *phase, deadline time.Time, traced bool) *tableOut {
	o := &tableOut{owners: map[string]int{}}
	next := 0
	for cyc := 0; cyc == 0 || time.Now().Before(deadline); cyc++ {
		entry := t.nodes[cyc%2]
		o.attempted++
		info, err := entry.client.CreateSession(ctx, api.SessionCreateRequest{Mode: "table"})
		if err != nil {
			o.failed++
			p.errorf("cycle %d: create: %v", cyc, err)
			return o
		}
		owner, other, err := t.byName(info.Node)
		if err != nil {
			p.errorf("%v", err)
			return o
		}
		if owner == t.nodes[0] {
			o.owners[info.ID] = 0
		} else {
			o.owners[info.ID] = 1
		}
		via := owner
		if t.proxied {
			via = other
		}
		for j := 0; j < stepsPerCycle; j++ {
			i := next % replayLen
			next++
			st := t.states[i]
			var slot rtSlot
			sctx := ctx
			if traced {
				sctx = withSlot(ctx, &slot)
			}
			start := time.Now()
			resp, err := via.client.Step(sctx, info.ID, api.StepRequest{MaxCoreTempC: st.MaxCoreTemp, RequiredFreqHz: st.RequiredFreq})
			d := time.Since(start)
			o.attempted++
			o.lat = append(o.lat, ms(d))
			if err != nil {
				o.failed++
				p.errorf("step: %v", err)
				continue
			}
			if !sameBits(resp.FreqsHz, t.want[i]) {
				p.errorf("served decision %v differs from Controller.Decide %v", resp.FreqsHz, t.want[i])
			}
			if traced {
				o.rtUs = append(o.rtUs, float64(slot.rt.Nanoseconds())/1e3)
				o.codecUs = append(o.codecUs, float64((d-slot.rt).Nanoseconds())/1e3)
				o.reqBytes += slot.reqBytes
				o.rspByte += slot.respByte
			}
		}
		o.attempted++
		if err := via.client.DeleteSession(ctx, info.ID); err != nil {
			o.failed++
			p.errorf("delete: %v", err)
		}
	}
	return o
}

// verify steps every replay state through one session's owner (local)
// and through the other node (proxied), and requires both answers to
// be bit-identical to Controller.Decide on the same state and table.
func (t *tableWL) verify(ctx context.Context) error {
	info, err := t.nodes[0].client.CreateSession(ctx, api.SessionCreateRequest{Mode: "table"})
	if err != nil {
		return err
	}
	owner, other, err := t.byName(info.Node)
	if err != nil {
		return err
	}
	defer owner.client.DeleteSession(ctx, info.ID)
	t.checked = 0
	for i, st := range t.states {
		for _, via := range []*node{owner, other} {
			resp, err := via.client.Step(ctx, info.ID, api.StepRequest{MaxCoreTempC: st.MaxCoreTemp, RequiredFreqHz: st.RequiredFreq})
			if err != nil {
				return fmt.Errorf("state %d via %s: %w", i, via.url, err)
			}
			if !sameBits(resp.FreqsHz, t.want[i]) {
				return fmt.Errorf("state %d via %s: decision %v differs from Controller.Decide %v", i, via.url, resp.FreqsHz, t.want[i])
			}
			if !validFreqs(resp.FreqsHz, t.table.NumCores, t.table.FMax) {
				return fmt.Errorf("state %d: invalid decision %v", i, resp.FreqsHz)
			}
			t.checked++
		}
	}
	return nil
}

func (t *tableWL) counts() map[string]any {
	var gens, fetches uint64
	for _, nd := range t.nodes {
		cs := nd.eng.CacheStats()
		gens += cs.Generations
		fetches += cs.FetchHits
	}
	s := t.table.Stats
	return map[string]any{
		"replay_in_grid":        t.classes["in_grid"],
		"replay_downgrade":      t.classes["downgrade"],
		"replay_idle":           t.classes["idle"],
		"verified_decisions":    t.checked,
		"sweep_points_solved":   s.Solves,
		"sweep_points_feasible": s.Feasible,
		"sweep_newton_iters":    s.NewtonIters,
		"sweep_warm_hits":       s.WarmHits,
		"cluster_generations":   gens,
		"cluster_fetch_hits":    fetches,
	}
}

// layers derives the per-layer metrics of a traced phase.
func (t *tableWL) layers(p *phase, o *tableOut) layers {
	l := newLayers()
	n := float64(max(len(p.lat), 1))
	l.set("http.roundtrip_us_p50", median(o.rtUs))
	l.set("client.codec_us_p50", median(o.codecUs))
	l.set("api.step_request_bytes", float64(o.reqBytes)/n)
	l.set("api.step_response_bytes", float64(o.rspByte)/n)

	// A step record on the session's owner is the local serve; one on
	// the other node is the proxying entry, whose time includes the hop
	// and the owner's serve.
	var serve, entry, creates, deletes []float64
	for i, nd := range t.nodes {
		for _, r := range nd.records() {
			us := float64(r.elapsed.Nanoseconds()) / 1e3
			owner, known := o.owners[sessionID(r.path)]
			switch {
			case r.method == "POST" && isCreatePath(r.path):
				creates = append(creates, us)
			case !known:
			case r.method == "POST" && isStepPath(r.path) && owner == i:
				serve = append(serve, us)
			case r.method == "POST" && isStepPath(r.path):
				entry = append(entry, us)
			case r.method == "DELETE" && owner == i:
				deletes = append(deletes, us)
			}
		}
	}
	l.set("server.step_handler_us_p50", median(serve))
	l.set("server.create_us_p50", median(creates))
	l.set("server.delete_us_p50", median(deletes))
	if len(entry) > 0 {
		l.set("cluster.proxy_hop_us_p50", median(entry)-median(serve))
	}
	var proxied, rejected uint64
	for _, nd := range t.nodes {
		snap := nd.clu.Registry().Snapshot()
		proxied += snap["cluster_proxied_requests"]
		rejected += snap["cluster_breaker_rejected"]
	}
	if p.attempted > 0 {
		l.set("cluster.proxied_share", float64(proxied)/float64(p.attempted))
	}
	l.set("cluster.breaker_rejects", float64(rejected))
	l.set("cluster.table_fetch_ms", t.fetchS*1e3)

	l.set("core.downgrade_ratio", float64(t.classes["downgrade"])/replayLen)
	l.set("core.idle_ratio", float64(t.classes["idle"])/replayLen)
	l.set("core.table_decide_ns", decideNs(t.ctrl, t.states))

	s := t.table.Stats
	l.set("sweep.wall_s", t.sweepS)
	l.set("sweep.points_solved", float64(s.Solves))
	l.set("sweep.infeasible_points", float64(s.Solves-s.Feasible))
	l.set("sweep.newton_iters", float64(s.NewtonIters))
	l.set("sweep.warm_hits", float64(s.WarmHits))

	var buf bytes.Buffer
	var enc, dec []float64
	for r := 0; r < 5; r++ {
		buf.Reset()
		start := time.Now()
		if err := tablestore.Encode(&buf, t.table); err != nil {
			p.errorf("tablestore encode: %v", err)
			break
		}
		enc = append(enc, ms(time.Since(start)))
		start = time.Now()
		if _, err := tablestore.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			p.errorf("tablestore decode: %v", err)
			break
		}
		dec = append(dec, ms(time.Since(start)))
	}
	l.set("tablestore.bytes", float64(buf.Len()))
	l.set("tablestore.encode_ms", median(enc))
	l.set("tablestore.decode_ms", median(dec))
	return l
}

// decideNs is the median per-call time of Controller.Decide over the
// replay, in ns.
func decideNs(ctrl *core.Controller, states []protemp.State) float64 {
	var per []float64
	for r := 0; r < 9; r++ {
		start := time.Now()
		for _, st := range states {
			ctrl.Decide(st.MaxCoreTemp, st.RequiredFreq)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(states)))
	}
	return median(per)
}

// sessionID extracts {id} from /v1/sessions/{id}[/...].
func sessionID(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}
