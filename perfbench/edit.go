package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	spp "repro"
	"repro/internal/bfunc"
	"repro/internal/fcache"
	"repro/internal/service"
	"repro/internal/stats"
)

const (
	editN       = 9
	editOnCount = 96
	// editK net minterm edits per op: two points turned ON, two OFF.
	editK = 4
	// editBasesPerClient base functions per client, walked round-robin,
	// so no single random base sets the run's cost.
	editBasesPerClient = 8
	// editOpsPerSecond sizes the op list on the reference host.
	editOpsPerSecond = 240
	// editWarmupSteps is the length of each client's warm-up walk, on a
	// base of its own that the timed phase never touches.
	editWarmupSteps = 8
	// editReplayBases is how many of client 0's bases a traced run
	// replays layer by layer.
	editReplayBases = 4
	// heapGenerations is how many warm generations the traced run keeps
	// alive to measure their real heap.
	heapGenerations = 8
)

// editEnv is one set-up edit-loop world: a -warm-cache server at default
// cache settings with every base submitted.
type editEnv struct {
	walks []walk // [client*editBasesPerClient + b], then one warm-up walk per client
	steps int    // timed steps per base
	srv   *service.Server
	ts    *httptest.Server
	// clients[c] is client c's own connection to the server.
	clients [clients]*http.Client
	heads   []string // current base_key per walk
}

func (e *editEnv) close() {
	e.ts.Close()
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
}

func editSteps(seconds int) int {
	return max(1, seconds*editOpsPerSecond/(clients*editBasesPerClient))
}

func editWalks(seed int64, steps int) []walk {
	rng := rand.New(rand.NewSource(seed))
	var ws []walk
	for b := 0; b < clients*editBasesPerClient; b++ {
		ws = append(ws, newWalk(rng, editN, editOnCount, steps, editK))
	}
	for c := 0; c < clients; c++ {
		ws = append(ws, newWalk(rng, editN, editOnCount, editWarmupSteps, editK))
	}
	return ws
}

// sender posts to the server under test, over loopback HTTP or
// in-process through its handler.
type sender func(body []byte) (time.Duration, int, []byte, error)

func httpSender(client *http.Client, url string) sender {
	return func(body []byte) (time.Duration, int, []byte, error) { return post(client, url, body) }
}

func handlerSender(h http.Handler) sender {
	return func(body []byte) (time.Duration, int, []byte, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/minimize", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return time.Since(t0), rec.Code, rec.Body.Bytes(), nil
	}
}

// submitFull sends a whole function and returns its base_key.
func submitFull(send sender, on []uint64) (string, service.Response, error) {
	_, code, raw, err := send(minimizeBody(editN, on, ""))
	if err != nil {
		return "", service.Response{}, err
	}
	r, err := decode(raw)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("full submit: status %d: %s", code, r.Error)
	}
	if err == nil && r.BaseKey == "" {
		err = fmt.Errorf("full submit: no base_key (is the warm cache on?)")
	}
	return r.BaseKey, r, err
}

// setupEdit starts a -warm-cache server, submits every base, and walks
// each client's warm-up base.
func setupEdit(cfg config) (*editEnv, error) {
	env := &editEnv{steps: editSteps(cfg.seconds)}
	env.walks = editWalks(cfg.seed, env.steps)
	env.srv = service.New(service.Config{WarmCache: true})
	env.ts = httptest.NewServer(env.srv.Handler())
	for c := range env.clients {
		env.clients[c] = newClient()
	}
	env.heads = make([]string, len(env.walks))
	errs := make([]error, clients)
	parallel(func(c int) {
		send := httpSender(env.clients[c], env.ts.URL)
		for b := c * editBasesPerClient; b < (c+1)*editBasesPerClient && errs[c] == nil; b++ {
			env.heads[b], _, errs[c] = submitFull(send, env.walks[b].base)
		}
		if errs[c] != nil {
			return
		}
		w := clients*editBasesPerClient + c
		env.heads[w], _, errs[c] = submitFull(send, env.walks[w].base)
		for s := 0; s < editWarmupSteps && errs[c] == nil; s++ {
			var r editReply
			r, errs[c] = editStep(send, env.heads[w], env.walks[w], s)
			env.heads[w] = r.resp.BaseKey
		}
	})
	for _, err := range errs {
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// editReply is one answered edit.
type editReply struct {
	d        time.Duration
	resp     service.Response
	raw      []byte
	baseMiss bool
}

// editStep sends step s of walk w as a delta on head. A 409
// cold_run_required is answered by re-submitting the edited function in
// full; the op then counts as a base miss, not a failure.
func editStep(send sender, head string, w walk, s int) (editReply, error) {
	d, code, raw, err := send(deltaBody(head, w.edits[s]))
	if err != nil {
		return editReply{d: d}, err
	}
	r, err := decode(raw)
	if err != nil {
		return editReply{d: d}, err
	}
	if code == http.StatusConflict && r.Code == "cold_run_required" {
		t0 := time.Now()
		_, full, err := submitFull(send, w.after[s])
		return editReply{d: d + time.Since(t0), resp: full, baseMiss: true}, err
	}
	reply := editReply{d: d, resp: r, raw: raw}
	if code != http.StatusOK {
		return reply, fmt.Errorf("delta: status %d: %s", code, r.Error)
	}
	if r.BaseKey == "" {
		return reply, fmt.Errorf("delta answer carries no base_key")
	}
	return reply, nil
}

// editOp is one timed op's record.
type editOp struct {
	walk, step int
	reply      editReply
	err        error
}

// editRun is one pass of every client's script.
type editRun struct {
	timedRun
	ops      []editOp
	failed   int64
	baseMiss int64
	st0, st1 service.Statsz
}

// editSegments is how many segments the scripts are timed in, each a
// consecutive range of steps of every base; at 1200 ops a segment's
// tail is its p99, which is set by the ops that overlap a GC cycle and
// moves less between runs than a shallower percentile.
const editSegments = 4

// editPass runs every client's script over HTTP: client c walks its
// editBasesPerClient bases round-robin, one step of each in turn. Op
// (c, s, b) has index c*perClient + s*editBasesPerClient + b. With a
// tracer each op becomes an "op" span.
func editPass(env *editEnv, tr *tracer) (editRun, []int, error) {
	var run editRun
	var err error
	if run.st0, err = statsz(env.clients[0], env.ts.URL); err != nil {
		return run, nil, err
	}
	perClient := env.steps * editBasesPerClient
	run.ops = make([]editOp, clients*perClient)
	opSpan := make([]int, len(run.ops))
	lat := make([][]time.Duration, clients)
	// After a failed op the next op of that base re-submits in full, so
	// one failure is counted once and the chain recovers.
	broken := make([]bool, len(env.walks))
	run.segs = runSegments(env.steps, editSegments, func(lo, hi int) []time.Duration {
		parallel(func(c int) {
			send := httpSender(env.clients[c], env.ts.URL)
			lat[c] = lat[c][:0]
			for s := lo; s < hi; s++ {
				for b := 0; b < editBasesPerClient; b++ {
					i := c*perClient + s*editBasesPerClient + b
					w := c*editBasesPerClient + b
					var t0 int64
					if tr != nil {
						t0 = tr.now()
					}
					var r editReply
					var err error
					if broken[w] {
						start := time.Now()
						_, r.resp, err = submitFull(send, env.walks[w].after[s])
						r.d = time.Since(start)
					} else {
						r, err = editStep(send, env.heads[w], env.walks[w], s)
					}
					if tr != nil {
						opSpan[i] = tr.add("op", -1, i, t0, tr.now())
					}
					broken[w] = err != nil
					if err == nil {
						env.heads[w] = r.resp.BaseKey
					}
					run.ops[i] = editOp{walk: w, step: s, reply: r, err: err}
					lat[c] = append(lat[c], r.d)
				}
			}
		})
		var all []time.Duration
		for _, l := range lat {
			all = append(all, l...)
		}
		return all
	})
	for _, op := range run.ops {
		if op.reply.baseMiss {
			run.baseMiss++
		}
		if op.err != nil {
			run.failed++
			continue
		}
		run.ok++
		run.literals += int64(op.reply.resp.Literals)
	}
	run.st1, err = statsz(env.clients[0], env.ts.URL)
	return run, opSpan, err
}

// checkEdit evaluates every returned form on every point of B^9 against
// the function the script says the op produced. A wrong form turns its
// op into a failure.
func checkEdit(out *outcome, env *editEnv, run *editRun) {
	shown := 0
	report := func(format string, args ...any) {
		if shown++; shown <= 5 {
			out.problem(format, args...)
		}
	}
	for i := range run.ops {
		op := &run.ops[i]
		if op.err != nil {
			report("op %d (walk %d step %d): %v", i, op.walk, op.step, op.err)
			continue
		}
		lits, err := checkForm("spp", editN, op.reply.resp.Form, env.walks[op.walk].after[op.step])
		if err == nil && lits != op.reply.resp.Literals {
			err = fmt.Errorf("form has %d literals, response says %d", lits, op.reply.resp.Literals)
		}
		if err != nil {
			op.err = err
			run.failed++
			run.ok--
			run.literals -= int64(op.reply.resp.Literals)
			report("op %d (walk %d step %d): %v", i, op.walk, op.step, err)
		}
	}
	if shown > 5 {
		out.problem("%d more failed ops", shown-5)
	}
	if got := run.st1.DeltaBaseMiss - run.st0.DeltaBaseMiss; got != run.baseMiss {
		out.problem("service counted %d base misses, clients saw %d", got, run.baseMiss)
	}
	out.note("edit-loop: %d ops, %d warm, %d cold fallbacks, %d base misses (re-submitted in full)",
		len(run.ops), run.st1.DeltaWarm-run.st0.DeltaWarm, run.st1.DeltaCold-run.st0.DeltaCold, run.baseMiss)
}

func runEditLoop(cfg config) (*outcome, error) {
	setup := func() (*editEnv, error) { return setupEdit(cfg) }
	env, setups, err := timeSetups(setup, (*editEnv).close)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]metric{}}
	run, _, err := editPass(env, nil)
	env.close()
	if err != nil {
		return nil, err
	}
	out.attempted = int64(len(run.ops))
	checkEdit(out, env, &run)
	out.failed = run.failed
	if !cfg.trace {
		endToEnd(out, run.timedRun, setups)
		return out, nil
	}
	return out, editTraced(out, cfg, run)
}

// editTraced walks the same scripts again on a fresh server with op
// spans, then replays the ops of client 0's first editReplayBases bases
// against each layer alone: the loopback transport (echo server), the
// service handler in-process on a twin server, spp.Resume (with a stats
// recorder for the cover patch), and fcache canonicalization.
func editTraced(out *outcome, cfg config, untraced editRun) error {
	env, err := setupEdit(cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, opSpan, err := editPass(env, tr)
	env.close()
	if err != nil {
		return err
	}
	if traced.failed != 0 {
		out.problem("traced pass: %d ops failed", traced.failed)
	}

	twin := service.New(service.Config{WarmCache: true})
	send := handlerSender(twin.Handler())
	// The echo server answers with the twin's reply to the same request,
	// so the transport replay moves the same bytes both ways.
	var replyMu sync.Mutex
	var reply []byte
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		replyMu.Lock()
		defer replyMu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	}))
	defer echo.Close()
	echoClient := newClient()
	defer echoClient.CloseIdleConnections()
	rec := stats.New()
	opts := &spp.Options{Stats: rec}
	ctx := context.Background()
	cursor := map[int]int64{}
	var echoD, handlerD, resumeD, canonD time.Duration
	var charged int64
	replayed := 0
	for b := 0; b < editReplayBases; b++ {
		w := env.walks[b]
		head, _, err := submitFull(send, w.base)
		if err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		_, ws, err := spp.MinimizeWarm(spp.New(editN, w.base), opts)
		if err != nil {
			return err
		}
		for s := 0; s < env.steps; s++ {
			i := s*editBasesPerClient + b // op index of client 0
			r, err := editStep(send, head, w, s)
			if err != nil {
				return fmt.Errorf("handler replay: %w", err)
			}
			replyMu.Lock()
			reply = r.raw
			replyMu.Unlock()
			d, code, _, err := post(echoClient, echo.URL, deltaBody(head, w.edits[s]))
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("echo replay: status %d: %v", code, err)
			}
			head = r.resp.BaseKey
			echoD += d
			handlerD += r.d
			tr.placed("http.transport", opSpan[i], i, d, cursor)
			h := tr.placed("service.Handler", opSpan[i], i, r.d, cursor)

			t0 := time.Now()
			_, next, err := spp.Resume(ws, spp.Delta{AddOn: w.edits[s].add, RemoveOn: w.edits[s].remove}, opts)
			rd := time.Since(t0)
			if err != nil {
				return fmt.Errorf("resume replay: %w", err)
			}
			ws = next
			resumeD += rd
			charged += ws.Bytes()
			tr.placed("spp.Resume", h, i, rd, cursor)

			f := bfunc.New(editN, w.after[s])
			t0 = time.Now()
			_, _, _, err = fcache.CanonicalizeCtx(ctx, f)
			cd := time.Since(t0)
			if err != nil {
				return fmt.Errorf("canonicalize replay: %w", err)
			}
			canonD += cd
			tr.placed("fcache.CanonicalizeCtx", h, i, cd, cursor)
			replayed++
		}
	}
	heapMB, chargedMB, err := warmHeap(env.walks[0])
	if err != nil {
		return err
	}

	n := float64(replayed)
	var patchMS float64
	for _, ph := range rec.Report("").Phases {
		if ph.Phase == "cover.patch" {
			patchMS = ph.Seconds * 1e3
		}
	}
	st0, st1 := untraced.st0, untraced.st1
	warm := float64(st1.DeltaWarm - st0.DeltaWarm)
	m := out.metrics
	m["http.transport_us"] = metric{us(echoD) / n, "us"}
	m["service.handler_us"] = metric{us(handlerD) / n, "us"}
	m["resume.ms"] = metric{ms(resumeD) / n, "ms"}
	m["cover.patch_ms"] = metric{patchMS / n, "ms"}
	m["fcache.canon_us"] = metric{us(canonD) / n, "us"}
	m["warm.charged_mb"] = metric{float64(charged) / n / (1 << 20), "MB"}
	m["warm.heap_mb"] = metric{heapMB, "MB"}
	m["warm.charge_ratio"] = metric{ratio(chargedMB, heapMB), "ratio"}
	m["fcache.hit_ratio"] = metric{ratio(float64(st1.CacheHits-st0.CacheHits), float64(st1.Served-st0.Served)), "ratio"}
	m["fcache.evictions"] = metric{float64(st1.CacheEvictions - st0.CacheEvictions), "count"}
	m["fcache.bytes_mb"] = metric{float64(st1.CacheBytes) / (1 << 20), "MB"}
	m["service.admission_wait_ms"] = metric{float64(st1.QueueWaitP99MS), "ms"}
	m["service.delta_warm_ratio"] = metric{ratio(warm, float64(len(untraced.ops))), "ratio"}
	m["service.delta_cold_fallback"] = metric{float64(st1.DeltaCold - st0.DeltaCold), "count"}
	m["service.delta_base_miss"] = metric{float64(st1.DeltaBaseMiss - st0.DeltaBaseMiss), "count"}
	m["service.cover_reused_ratio"] = metric{ratio(float64(st1.DeltaCoverReused-st0.DeltaCoverReused), warm), "ratio"}
	m["trace.residual_pct"] = metric{residualPct(tr.spans), "%"}
	m["trace.overhead_pct"] = metric{overheadPct(untraced.wall(), traced.wall()), "%"}
	out.note("replayed %d ops (client 0, %d bases) layer by layer", replayed, editReplayBases)
	dominance(out, "warm resume", "resume time / handler time", ratio(float64(resumeD), float64(handlerD)), true)
	out.spans = tr.spans
	return nil
}

// warmHeap measures what retained warm generations really cost: the
// live-heap growth after GC per generation kept alive, next to what
// WarmState.Bytes charges for them (both in MB).
func warmHeap(w walk) (heapMB, chargedMB float64, err error) {
	_, ws, err := spp.MinimizeWarm(spp.New(editN, w.base), nil)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	live0 := liveHeapBytes()
	kept := []*spp.WarmState{ws}
	var charged int64
	for s := 0; s < heapGenerations && s < len(w.edits); s++ {
		_, next, err := spp.Resume(kept[len(kept)-1], spp.Delta{AddOn: w.edits[s].add, RemoveOn: w.edits[s].remove}, nil)
		if err != nil {
			return 0, 0, err
		}
		kept = append(kept, next)
		charged += next.Bytes()
	}
	runtime.GC()
	live1 := liveHeapBytes()
	gens := float64(len(kept) - 1)
	runtime.KeepAlive(kept)
	return float64(int64(live1)-int64(live0)) / gens / (1 << 20), float64(charged) / gens / (1 << 20), nil
}
