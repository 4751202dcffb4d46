package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	spp "repro"
	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/pcube"
	"repro/internal/ptrie"
	"repro/internal/stats"
)

// soloSpec describes a single-caller workload that calls spp.Minimize
// on benchmark outputs.
type soloSpec struct {
	designs []string
	exact   bool
	// passSeconds is how long one pass over the pool takes on the
	// reference host (two CPUs); it sizes the op list.
	passSeconds float64
	// replayUnions caps the primitive replay of a traced run.
	replayUnions int64
	// passesPerSegment groups whole passes into the timed segments, so
	// every segment does the same work and has enough samples for its
	// tail percentile.
	passesPerSegment int
	// warmupPass makes the warm-up a whole pass over the pool in pool
	// order; otherwise it is the first output of every design.
	warmupPass bool
}

// coldSPP's pool is every output of these designs (346 outputs). adr4,
// radd, cs8, dist, f51m and root are left out because their outputs take
// 0.3-4 s each and would dominate; add6, alu and amd exhaust the budget.
var coldSPP = soloSpec{
	designs: []string{"ex5", "exps", "lin.rom", "life", "m3", "m4", "max128", "max512", "max1024",
		"mlp4", "newtpla2", "p1", "risc", "test1", "prom1", "prom2", "addm4"},
	passSeconds:      12,
	passesPerSegment: 1,
	replayUnions:     4_000_000,
}

// exactCover's pool is the 60 outputs of lin.rom and max128, each proven
// optimal within the default node budget, so the parallel solver's
// answer is deterministic.
var exactCover = soloSpec{
	designs:          []string{"lin.rom", "max128"},
	exact:            true,
	passSeconds:      1.25,
	passesPerSegment: 4,
	replayUnions:     1_000_000,
	warmupPass:       true,
}

func runColdSPP(cfg config) (*outcome, error)    { return runSolo(cfg, coldSPP) }
func runExactCover(cfg config) (*outcome, error) { return runSolo(cfg, exactCover) }

type poolFunc struct {
	name string
	f    *bfunc.Func
	sf   *spp.Function
}

type soloEnv struct {
	pool []poolFunc
	ops  []int
}

// setupSolo generates the pool and the op list, then runs the warm-up,
// the same outputs under every seed.
func setupSolo(cfg config, spec soloSpec) (soloEnv, error) {
	var env soloEnv
	var warmup []poolFunc
	for _, d := range spec.designs {
		m, err := bench.Load(d)
		if err != nil {
			return env, err
		}
		for i := 0; i < m.NOutputs(); i++ {
			f := m.Output(i)
			p := poolFunc{
				name: fmt.Sprintf("%s[%d]", d, i),
				f:    f,
				sf:   spp.NewWithDC(f.N(), f.On(), f.DC()),
			}
			env.pool = append(env.pool, p)
			if i == 0 || spec.warmupPass {
				warmup = append(warmup, p)
			}
		}
	}
	for _, p := range warmup {
		if _, err := spp.Minimize(p.sf, spec.options()); err != nil {
			return env, fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	env.ops = shuffledPasses(rng, len(env.pool), passes(cfg.seconds, spec.passSeconds))
	return env, nil
}

func (s soloSpec) options() *spp.Options { return &spp.Options{ExactCover: s.exact} }

func (s soloSpec) coreOptions() core.Options { return core.Options{CoverExact: s.exact} }

func runSolo(cfg config, spec soloSpec) (*outcome, error) {
	env, setups, err := timeSetups(func() (soloEnv, error) { return setupSolo(cfg, spec) }, func(soloEnv) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]metric{}}
	t, results := soloTimed(env, spec)
	out.attempted = int64(len(env.ops))
	out.failed = out.attempted - t.ok + int64(checkSolo(out, env, spec, results))
	if !cfg.trace {
		endToEnd(out, t, setups)
		return out, nil
	}
	soloTraced(out, env, spec, t, results)
	return out, nil
}

type soloResult struct {
	res *spp.Result
	err error
}

// soloTimed runs the op list through spp.Minimize, one call at a time,
// in segments of spec.passesPerSegment whole passes.
func soloTimed(env soloEnv, spec soloSpec) (timedRun, []soloResult) {
	var t timedRun
	results := make([]soloResult, len(env.ops))
	passes := len(env.ops) / len(env.pool)
	segs := max(1, passes/spec.passesPerSegment)
	t.segs = runSegments(passes, segs, func(lo, hi int) []time.Duration {
		lat := make([]time.Duration, 0, (hi-lo)*len(env.pool))
		for i := lo * len(env.pool); i < hi*len(env.pool); i++ {
			// Each op starts from a collected heap, so its cost does not
			// depend on the garbage of the ops the seed put before it.
			runtime.GC()
			t0 := time.Now()
			res, err := spp.Minimize(env.pool[env.ops[i]].sf, spec.options())
			lat = append(lat, time.Since(t0))
			results[i] = soloResult{res: res, err: err}
			if err == nil {
				t.ok++
				t.literals += int64(res.Form.Literals())
			}
		}
		return lat
	})
	return t, results
}

// checkSolo verifies every returned form on every point and that each
// output got the same form in every pass. It returns the number of
// wrong forms.
func checkSolo(out *outcome, env soloEnv, spec soloSpec, results []soloResult) (wrong int) {
	first := map[int]string{}
	for i, r := range results {
		p := env.pool[env.ops[i]]
		if r.err != nil {
			out.problem("op %d (%s): %v", i, p.name, r.err)
			continue
		}
		if err := r.res.Form.Verify(p.sf); err != nil {
			wrong++
			out.problem("op %d (%s): %v", i, p.name, err)
			continue
		}
		s := r.res.Form.String()
		if prev, ok := first[env.ops[i]]; ok && prev != s {
			wrong++
			out.problem("op %d (%s): form differs between passes", i, p.name)
		}
		first[env.ops[i]] = s
		if spec.exact && !r.res.CoverOptimal {
			out.problem("op %d (%s): cover not proven optimal within the node budget", i, p.name)
		}
	}
	return wrong
}

// soloTraced runs the op list again with spans around the two calls
// spp.Minimize is made of (core.BuildEPPP, then core.SelectCover with a
// stats recorder), then replays the Algorithm-2 level loop to time the
// pcube and ptrie primitives.
func soloTraced(out *outcome, env soloEnv, spec soloSpec, untraced timedRun, results []soloResult) {
	tr := newTracer()
	rec := stats.New()
	opts := spec.coreOptions()
	coverOpts := opts
	coverOpts.Stats = rec
	var cand, kept, unions, optimal int64
	var alloc uint64
	opUnions := make([]int64, len(env.ops))
	start := time.Now()
	for i, idx := range env.ops {
		p := env.pool[idx]
		runtime.GC() // as in the untraced pass
		op := tr.add("op", -1, i, tr.now(), 0)
		var set *core.EPPPSet
		var form core.Form
		var err error
		var ok bool
		a0 := allocatedBytes()
		tr.time("core.BuildEPPP", op, i, func() { set, err = core.BuildEPPP(p.f, opts) })
		alloc += allocatedBytes() - a0
		if err == nil {
			tr.time("core.SelectCover", op, i, func() { form, _, ok, err = core.SelectCover(p.f, set, coverOpts) })
		}
		tr.spans[op].End = tr.now()
		if err != nil {
			out.problem("traced op %d (%s): %v", i, p.name, err)
			continue
		}
		cand += int64(set.Stats.Candidates)
		kept += int64(set.Stats.EPPP)
		unions += set.Stats.Unions
		opUnions[i] = set.Stats.Unions
		if ok {
			optimal++
		}
		if r := results[i]; r.err == nil && r.res.Form.String() != form.String() {
			out.problem("traced op %d (%s): form differs from spp.Minimize", i, p.name)
		}
	}
	traced := time.Since(start)

	lt := totals(tr.spans)
	nOps := float64(len(env.ops))
	opTime := float64(lt.total["op"])
	rep := rec.Report("")
	phase := map[string]float64{}
	for _, ph := range rep.Phases {
		phase[ph.Phase] = ph.Seconds * 1e3
	}
	m := out.metrics
	m["eppp.ms"] = metric{float64(lt.total["core.BuildEPPP"]) / 1e6 / nOps, "ms"}
	m["eppp.share"] = metric{ratio(float64(lt.self["core.BuildEPPP"]), opTime), "ratio"}
	m["eppp.candidates"] = metric{float64(cand) / nOps, "count"}
	m["eppp.kept"] = metric{float64(kept) / nOps, "count"}
	m["eppp.kept_ratio"] = metric{ratio(float64(kept), float64(cand)), "ratio"}
	m["eppp.unions"] = metric{float64(unions) / nOps, "count"}
	m["eppp.alloc_mb"] = metric{float64(alloc) / (1 << 20) / nOps, "MB"}
	m["cover.ms"] = metric{float64(lt.total["core.SelectCover"]) / 1e6 / nOps, "ms"}
	m["cover.share"] = metric{ratio(float64(lt.self["core.SelectCover"]), opTime), "ratio"}
	m["cover.optimal_ratio"] = metric{float64(optimal) / nOps, "ratio"}
	m["cover.columns_ms"] = metric{phase["cover.columns"] / nOps, "ms"}
	m["cover.reduce_ms"] = metric{phase["cover.reduce"] / nOps, "ms"}
	m["cover.greedy_ms"] = metric{phase["cover.greedy"] / nOps, "ms"}
	m["cover.exact_ms"] = metric{phase["cover.exact"] / nOps, "ms"}
	m["cover.exact_nodes"] = metric{float64(rep.Sched["cover.exact_nodes"]) / nOps, "count"}
	m["trace.residual_pct"] = metric{residualPct(tr.spans), "%"}
	m["trace.overhead_pct"] = metric{overheadPct(untraced.wall(), traced), "%"}

	dominance(out, "EPPP construction", "eppp.share", m["eppp.share"].Value, !spec.exact)
	dominance(out, "covering", "cover.share", m["cover.share"].Value, spec.exact)
	replayPrimitives(out, tr, env, spec, opUnions)
	out.spans = tr.spans
	out.note("traced pass: %d ops in %.3fs (untraced %.3fs)", len(env.ops), traced.Seconds(), untraced.wall().Seconds())
}

// overheadPct compares the traced pass's throughput with the untraced
// pass over the same ops: positive means tracing slowed it down.
func overheadPct(untraced, traced time.Duration) float64 {
	return 100 * (traced.Seconds()/untraced.Seconds() - 1)
}

// replayChunk is how many unions (and then inserts) one timing window
// holds, so the clock reads cost nothing next to the work timed.
const replayChunk = 4096

// replayPrimitives re-runs the level loop of Algorithm 2 serially on the
// first ops' functions, timing pcube.Union on every same-structure pair
// of a level group and ptrie.Trie.Insert of every union, in windows of
// replayChunk calls. It stops after the first function that brings the
// union count past spec.replayUnions, and checks each function's union
// count against core.BuildEPPP's in the traced pass.
func replayPrimitives(out *outcome, tr *tracer, env soloEnv, spec soloSpec, opUnions []int64) {
	var unionNS, insertNS, unions, inserts int64
	replayed := 0
	for i, idx := range env.ops {
		if unions >= spec.replayUnions {
			break
		}
		p := env.pool[idx]
		root := tr.add("replay", -1, i, tr.now(), 0)
		n := p.f.N()
		cur := ptrie.New(n)
		for _, pt := range p.f.Care() {
			cur.Insert(pcube.FromPoint(n, pt))
		}
		var fnUnions int64
		buf := make([]*pcube.CEX, 0, replayChunk)
		for cur.Len() > 0 {
			next := ptrie.New(n)
			flush := func() {
				t0 := tr.now()
				for _, u := range buf {
					next.Insert(u)
				}
				t1 := tr.now()
				tr.add("ptrie.Insert", root, i, t0, t1)
				insertNS += t1 - t0
				inserts += int64(len(buf))
				buf = buf[:0]
			}
			var pending [][2]*pcube.CEX
			unionAll := func() {
				t0 := tr.now()
				for _, pr := range pending {
					buf = append(buf, pcube.Union(pr[0], pr[1]))
				}
				t1 := tr.now()
				tr.add("pcube.Union", root, i, t0, t1)
				unionNS += t1 - t0
				fnUnions += int64(len(pending))
				pending = pending[:0]
				flush()
			}
			cur.Groups(func(entries []*ptrie.Entry) bool {
				for a := 0; a < len(entries); a++ {
					for b := a + 1; b < len(entries); b++ {
						pending = append(pending, [2]*pcube.CEX{entries[a].CEX, entries[b].CEX})
						if len(pending) == replayChunk {
							unionAll()
						}
					}
				}
				return true
			})
			unionAll()
			cur = next
		}
		tr.spans[root].End = tr.now()
		unions += fnUnions
		replayed++
		if fnUnions != opUnions[i] {
			out.problem("replay of %s made %d unions, core.BuildEPPP %d", p.name, fnUnions, opUnions[i])
		}
	}
	out.metrics["pcube.union_ns"] = metric{ratio(float64(unionNS), float64(unions)), "ns"}
	out.metrics["ptrie.insert_ns"] = metric{ratio(float64(insertNS), float64(inserts)), "ns"}
	out.note("primitive replay: %d functions, %d unions, %d inserts", replayed, unions, inserts)
}
