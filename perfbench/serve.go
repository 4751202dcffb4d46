package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/bfunc"
	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/fcache"
	"repro/internal/harness"
	"repro/internal/service"
)

const (
	// servePairCount distinct (function, form) pairs, every one computed
	// during set-up; arity cycles 6..9 and form spp..auto with the rank.
	servePairCount = 240
	// serveDensityPct is the ON-set size in percent of 2^n.
	serveDensityPct = 16
	// servePermVariants counts the variable orders of a pair: the
	// identity and three seeded permutations.
	servePermVariants = 4
	servePermutedPct  = 25
	serveZipfS        = 1.0
	// serveOpsPerSecond sizes the op list: about one second of requests
	// per unit of --seconds on the reference host.
	serveOpsPerSecond = 10000
	// clients is the closed-loop client count of the two service
	// workloads: the host has two CPUs.
	clients = 2
	// serveCacheSize keeps every pair resident whatever the shard count:
	// a form=auto pair also caches each backend's answer.
	serveCacheSize = 4096
	// replayMax bounds how many ops a traced run replays layer by layer.
	replayMax = 20000
)

// serveEnv is one set-up serve-hot world: a server with every pair in
// its cache, and the request bodies.
type serveEnv struct {
	pairs  []servePair
	ops    []serveOp
	bodies [][][]byte   // [pair][variant]
	ons    [][][]uint64 // ON-set each body sends
	srv    *service.Server
	ts     *httptest.Server
	// clients[c] is client c's own connection to the server.
	clients [clients]*http.Client
	// first is the response each body got in the warm-up pass; every
	// later answer must equal it byte for byte.
	first [][]service.Response
	raw   map[string][]byte // body -> raw warm-up response, for the echo server
}

func (e *serveEnv) close() {
	e.ts.Close()
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
}

// newClient returns a client with a transport of its own; a closed-loop
// client has one request in flight, so it keeps one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// post sends one request and reads the whole reply; the duration covers
// send to last byte.
func post(client *http.Client, url string, body []byte) (time.Duration, int, []byte, error) {
	start := time.Now()
	resp, err := client.Post(url+"/v1/minimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(start), 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode, raw, err
}

func decode(raw []byte) (service.Response, error) {
	var r service.Response
	err := json.Unmarshal(raw, &r)
	return r, err
}

func statsz(client *http.Client, url string) (service.Statsz, error) {
	var st service.Statsz
	resp, err := client.Get(url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// parallel runs fn(c) for each client c and waits for all of them.
func parallel(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// setupServe generates the pairs and the stream, starts a server, fills
// its cache with every pair, and sends every body once as the warm-up.
func setupServe(cfg config) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	env := &serveEnv{pairs: servePairs(rng, servePairCount, servePermVariants)}
	env.ops = serveStream(rng, env.pairs, cfg.seconds*serveOpsPerSecond, serveZipfS, servePermutedPct)
	for _, p := range env.pairs {
		var bs [][]byte
		var ons [][]uint64
		for _, perm := range p.perms {
			on := make([]uint64, len(p.on))
			for i, pt := range p.on {
				on[i] = bitvec.PermutePoint(pt, p.n, perm)
			}
			bs = append(bs, minimizeBody(p.n, on, p.form))
			ons = append(ons, on)
		}
		env.bodies = append(env.bodies, bs)
		env.ons = append(env.ons, ons)
	}
	env.srv = service.New(service.Config{CacheSize: serveCacheSize})
	env.ts = httptest.NewServer(env.srv.Handler())
	for c := range env.clients {
		env.clients[c] = newClient()
	}
	env.first = make([][]service.Response, len(env.pairs))
	env.raw = map[string][]byte{}
	var mu sync.Mutex
	var firstErr error
	// Fill: the identity body of each pair computes it; then every body,
	// permuted ones included, is sent once more as the warm-up.
	for _, variants := range []int{1, servePermVariants} {
		parallel(func(c int) {
			for p := c; p < len(env.pairs); p += clients {
				for v := 0; v < variants; v++ {
					_, code, raw, err := post(env.clients[c], env.ts.URL, env.bodies[p][v])
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("pair %d variant %d: status %d: %s", p, v, code, raw)
					}
					var r service.Response
					if err == nil {
						r, err = decode(raw)
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if variants > 1 {
						env.first[p] = append(env.first[p], r)
						env.raw[string(env.bodies[p][v])] = raw
					}
					mu.Unlock()
				}
			}
		})
	}
	if firstErr != nil {
		env.close()
		return nil, firstErr
	}
	return env, nil
}

// serveRun is the record of one pass over the stream.
type serveRun struct {
	timedRun
	failed int64
	// odd holds answers that differ from the warm-up answer of the same
	// body, keyed by op index.
	odd map[int]service.Response
	st0 service.Statsz
	st1 service.Statsz
}

// serveSegments is how many segments the stream is timed in.
const serveSegments = 40

// servePass sends every op of the stream over loopback HTTP, op i by
// client i%clients, and records per-op latency. With a tracer each op
// becomes an "op" span.
func servePass(env *serveEnv, tr *tracer) (serveRun, []int, error) {
	var run serveRun
	var err error
	if run.st0, err = statsz(env.clients[0], env.ts.URL); err != nil {
		return run, nil, err
	}
	opSpan := make([]int, len(env.ops))
	lat := make([]time.Duration, len(env.ops))
	odd := make([]map[int]service.Response, clients)
	for c := range odd {
		odd[c] = map[int]service.Response{}
	}
	var failed, ok, lits [clients]int64
	run.segs = runSegments(len(env.ops), serveSegments, func(lo, hi int) []time.Duration {
		parallel(func(c int) {
			for i := lo + c; i < hi; i += clients {
				op := env.ops[i]
				var t0 int64
				if tr != nil {
					t0 = tr.now()
				}
				d, code, raw, err := post(env.clients[c], env.ts.URL, env.bodies[op.pair][op.variant])
				if tr != nil {
					opSpan[i] = tr.add("op", -1, i, t0, tr.now())
				}
				lat[i] = d
				want := env.first[op.pair][op.variant]
				if err != nil || code != http.StatusOK {
					failed[c]++
					odd[c][i] = service.Response{Error: fmt.Sprintf("status %d: %v %s", code, err, raw)}
					continue
				}
				r, err := decode(raw)
				if err != nil || r.Form != want.Form || r.Literals != want.Literals || r.FormKind != want.FormKind {
					failed[c]++
					odd[c][i] = r
					continue
				}
				ok[c]++
				lits[c] += int64(r.Literals)
			}
		})
		return lat[lo:hi]
	})
	run.odd = map[int]service.Response{}
	for c := 0; c < clients; c++ {
		run.failed += failed[c]
		run.ok += ok[c]
		run.literals += lits[c]
		for i, r := range odd[c] {
			run.odd[i] = r
		}
	}
	run.st1, err = statsz(env.clients[0], env.ts.URL)
	return run, opSpan, err
}

func runServeHot(cfg config) (*outcome, error) {
	env, setups, err := timeSetups(func() (*serveEnv, error) { return setupServe(cfg) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := &outcome{metrics: map[string]metric{}}
	run, _, err := servePass(env, nil)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = int64(len(env.ops)), run.failed
	checkServe(out, env, run)
	if !cfg.trace {
		endToEnd(out, run.timedRun, setups)
		return out, nil
	}
	return out, serveTraced(out, env, run)
}

// checkServe verifies the warm-up answer of every body on every point
// (each timed answer was compared with it byte for byte), reports every
// answer that differed, and checks that the timed pass computed nothing.
func checkServe(out *outcome, env *serveEnv, run serveRun) {
	for p, pair := range env.pairs {
		for v, r := range env.first[p] {
			lits, err := checkForm(r.FormKind, pair.n, r.Form, env.ons[p][v])
			if err != nil {
				out.problem("pair %d variant %d: %v", p, v, err)
			} else if lits != r.Literals {
				out.problem("pair %d variant %d: form has %d literals, response says %d", p, v, lits, r.Literals)
			}
		}
	}
	shown := 0
	for i, r := range run.odd {
		if shown++; shown <= 5 {
			op := env.ops[i]
			out.problem("op %d (pair %d variant %d): answer differs from the warm-up answer: %+v", i, op.pair, op.variant, r)
		}
	}
	if len(run.odd) > 5 {
		out.problem("%d more ops answered differently", len(run.odd)-5)
	}
	computes := timedComputes(run.st0, run.st1)
	out.note("serve-hot timed pass: %d engine computes (cache misses + races), want 0", computes)
	if computes != 0 {
		out.problem("serve-hot timed pass ran %d computes; every op should be a cache read", computes)
	}
}

func timedComputes(a, b service.Statsz) int64 {
	return (b.CacheMisses - a.CacheMisses) + (b.EngineRaces - a.EngineRaces)
}

// serveTraced runs the stream again with op spans, then replays a sample
// of its requests against each layer alone: the loopback transport (an
// echo server that returns the recorded reply), the service handler
// in-process, and fcache canonicalization. It also times each pair's
// backend directly, as the set-up fill computes it.
func serveTraced(out *outcome, env *serveEnv, untraced serveRun) error {
	tr := newTracer()
	traced, opSpan, err := servePass(env, tr)
	if err != nil {
		return err
	}
	if traced.failed != 0 {
		out.problem("traced pass: %d ops failed", traced.failed)
	}
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(env.raw[string(body)])
	}))
	defer echo.Close()
	echoClient := newClient()
	defer echoClient.CloseIdleConnections()
	inProcess := handlerSender(env.srv.Handler())
	ctx := context.Background()

	var echoD, handlerD, canonD time.Duration
	replayed := 0
	stride := max(1, len(env.ops)/replayMax)
	cursor := map[int]int64{}
	for i := 0; i < len(env.ops); i += stride {
		op := env.ops[i]
		body := env.bodies[op.pair][op.variant]
		d, code, _, err := post(echoClient, echo.URL, body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("echo replay: status %d: %v", code, err)
		}
		echoD += d
		tr.placed("http.transport", opSpan[i], i, d, cursor)

		hd, code, _, _ := inProcess(body)
		if code != http.StatusOK {
			return fmt.Errorf("handler replay: status %d", code)
		}
		handlerD += hd
		h := tr.placed("service.Handler", opSpan[i], i, hd, cursor)

		f := bfunc.New(env.pairs[op.pair].n, env.ons[op.pair][op.variant])
		t0 := time.Now()
		_, _, _, err = fcache.CanonicalizeCtx(ctx, f)
		cd := time.Since(t0)
		if err != nil {
			return fmt.Errorf("canonicalize replay: %w", err)
		}
		canonD += cd
		tr.placed("fcache.CanonicalizeCtx", h, i, cd, cursor)
		replayed++
	}
	st, err := statsz(env.clients[0], env.ts.URL)
	if err != nil {
		return err
	}

	n := float64(replayed)
	m := out.metrics
	m["http.transport_us"] = metric{us(echoD) / n, "us"}
	m["service.handler_us"] = metric{us(handlerD) / n, "us"}
	m["fcache.canon_us"] = metric{us(canonD) / n, "us"}
	served := float64(untraced.st1.Served - untraced.st0.Served)
	m["fcache.hit_ratio"] = metric{ratio(float64(untraced.st1.CacheHits-untraced.st0.CacheHits), served), "ratio"}
	m["fcache.evictions"] = metric{float64(st.CacheEvictions), "count"}
	m["fcache.bytes_mb"] = metric{float64(st.CacheBytes) / (1 << 20), "MB"}
	m["service.admission_wait_ms"] = metric{float64(st.QueueWaitP99MS), "ms"}
	m["service.timed_computes"] = metric{float64(timedComputes(untraced.st0, untraced.st1) + timedComputes(traced.st0, traced.st1)), "count"}
	m["trace.residual_pct"] = metric{residualPct(tr.spans), "%"}
	m["trace.overhead_pct"] = metric{overheadPct(untraced.wall(), traced.wall()), "%"}
	out.note("replayed %d of %d ops layer by layer", replayed, len(env.ops))

	if err := timeBackends(out, env); err != nil {
		return err
	}
	out.spans = tr.spans
	return nil
}

// timeBackends computes every pair once more straight through its
// engine backend (form=auto through engine.Race over the eligible
// backends), on the canonical function the service computes on, and
// reports the mean time per form.
func timeBackends(out *outcome, env *serveEnv) error {
	reg, err := engine.NewRegistry()
	if err != nil {
		return err
	}
	opts := engine.Options{Core: harness.DefaultConfig().CoreOptions()}
	ctx := context.Background()
	sum := map[string]time.Duration{}
	count := map[string]int{}
	for _, p := range env.pairs {
		_, _, canon := fcache.Canonicalize(bfunc.New(p.n, p.on))
		t0 := time.Now()
		if p.form == "auto" {
			_, err = engine.Race(ctx, reg.Eligible(canon), canon, opts)
		} else {
			b, _ := reg.Get(p.form)
			_, err = b.Minimize(ctx, canon, opts)
		}
		if err != nil {
			return fmt.Errorf("backend %s: %w", p.form, err)
		}
		sum[p.form] += time.Since(t0)
		count[p.form]++
	}
	for _, f := range serveForms {
		out.metrics["engine."+f+"_ms"] = metric{ms(sum[f]) / float64(count[f]), "ms"}
	}
	return nil
}
