// Command perfbench is the repository's benchmark: it runs one named
// workload against the SPP minimizer or the sppserve service, checks
// every answer, and prints one JSON result line. README.md in this
// directory defines the workloads and metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload cold-spp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run of the same ops, and the
// spans are written to .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	// problems lists every wrong answer or missed expectation; any entry
	// makes the run incorrect.
	problems []string
	// notes are human-readable lines printed before the result.
	notes   []string
	metrics map[string]metric
	spans   []span
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"cold-spp":    runColdSPP,
	"exact-cover": runExactCover,
	"serve-hot":   runServeHot,
	"edit-loop":   runEditLoop,
}

// endToEndMetrics and perLayerMetrics are the names and units the
// result line carries; BENCHMARK.json lists the same ones (checked by
// TestBenchmarkJSONMatches).
var endToEndMetrics = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"literals_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
}

var perLayerMetrics = []struct{ name, unit string }{
	{"pcube.union_ns", "ns"},
	{"ptrie.insert_ns", "ns"},
	{"eppp.ms", "ms"},
	{"eppp.share", "ratio"},
	{"eppp.candidates", "count"},
	{"eppp.kept", "count"},
	{"eppp.kept_ratio", "ratio"},
	{"eppp.unions", "count"},
	{"eppp.alloc_mb", "MB"},
	{"cover.ms", "ms"},
	{"cover.share", "ratio"},
	{"cover.optimal_ratio", "ratio"},
	{"cover.columns_ms", "ms"},
	{"cover.reduce_ms", "ms"},
	{"cover.greedy_ms", "ms"},
	{"cover.exact_ms", "ms"},
	{"cover.exact_nodes", "count"},
	{"resume.ms", "ms"},
	{"cover.patch_ms", "ms"},
	{"warm.charged_mb", "MB"},
	{"warm.heap_mb", "MB"},
	{"warm.charge_ratio", "ratio"},
	{"engine.spp_ms", "ms"},
	{"engine.sop_ms", "ms"},
	{"engine.esop_ms", "ms"},
	{"engine.dsop_ms", "ms"},
	{"engine.auto_ms", "ms"},
	{"fcache.canon_us", "us"},
	{"fcache.hit_ratio", "ratio"},
	{"fcache.evictions", "count"},
	{"fcache.bytes_mb", "MB"},
	{"service.handler_us", "us"},
	{"service.admission_wait_ms", "ms"},
	{"service.delta_warm_ratio", "ratio"},
	{"service.delta_cold_fallback", "count"},
	{"service.delta_base_miss", "count"},
	{"service.cover_reused_ratio", "ratio"},
	{"service.timed_computes", "count"},
	{"http.transport_us", "us"},
	{"trace.residual_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// setupRepeats is how many times each workload sets up per run;
// setup_s is their median.
const setupRepeats = 3

// buildDir is where run.sh keeps its build and where traces go.
const buildDir = ".bench_build"

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cold-spp, exact-cover, serve-hot or edit-loop")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the op list is drawn from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length the op list is sized for")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-spp|exact-cover|serve-hot|edit-loop --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	prov, err := json.Marshal(provenanceOf(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("provenance", string(prov))

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := finish(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish prints the notes and problems, writes the spans of a traced
// run, and builds the result line with exactly the metrics of the
// requested kind.
func finish(cfg config, out *outcome) (result, error) {
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Println("PROBLEM:", p)
	}
	fmt.Printf("error_rate %.6f (%d of %d ops failed)\n",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)

	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics
		path, err := writeSpans(buildDir+"/traces", fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed), out.spans)
		if err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(out.spans), path)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok {
			// A layer this workload does not reach reads 0.
			v = metric{Unit: m.unit}
		}
		if v.Unit != m.unit {
			return result{}, fmt.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = v
	}
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("metric %-30s %.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no ops attempted")
	}
	return res, nil
}

// timedRun is the raw record of one timed phase. The op list runs in
// consecutive segments; the rate, CPU and latency metrics are medians
// over segments, so a stall that hits one segment does not move them.
type timedRun struct {
	segs     []segment
	ok       int64
	literals int64
}

// segment is one consecutive slice of the op list.
type segment struct {
	lat       []time.Duration
	wall, cpu time.Duration
}

func (t timedRun) wall() time.Duration {
	var w time.Duration
	for _, s := range t.segs {
		w += s.wall
	}
	return w
}

func (t timedRun) ops() int {
	n := 0
	for _, s := range t.segs {
		n += len(s.lat)
	}
	return n
}

// runSegments splits count units of work into k consecutive ranges and
// times each: fn(lo, hi) runs units [lo, hi) and returns the latencies
// of the ops it ran.
func runSegments(count, k int, fn func(lo, hi int) []time.Duration) []segment {
	segs := make([]segment, k)
	for s := range segs {
		cpu0, start := cpuTime(), time.Now()
		lat := fn(s*count/k, (s+1)*count/k)
		segs[s] = segment{lat: lat, wall: time.Since(start), cpu: cpuTime() - cpu0}
	}
	return segs
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd turns a timed phase and the set-up times into the
// end-to-end metrics.
func endToEnd(out *outcome, t timedRun, setups []time.Duration) {
	var rate, cpu, p50, tl, setupSeconds []float64
	var last latencySummary
	for _, s := range t.segs {
		n := float64(len(s.lat))
		last = summarize(s.lat)
		rate = append(rate, n/s.wall.Seconds())
		cpu = append(cpu, ms(s.cpu)/n)
		p50 = append(p50, ms(last.p50))
		tl = append(tl, ms(last.tail))
	}
	for _, d := range setups {
		setupSeconds = append(setupSeconds, d.Seconds())
	}
	out.metrics = map[string]metric{
		"ops_per_s":       {median(rate), "1/s"},
		"latency_p50_ms":  {median(p50), "ms"},
		"latency_tail_ms": {median(tl), "ms"},
		"cpu_ms_per_op":   {median(cpu), "ms"},
		"literals_per_op": {ratio(float64(t.literals), float64(t.ok)), "count"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"success_ratio":   {1 - ratio(float64(out.failed), float64(out.attempted)), "ratio"},
		"setup_s":         {median(setupSeconds), "s"},
	}
	out.note("timed phase: %d ops in %d segments, %.3fs; rate, CPU and latency metrics are medians over segments", t.ops(), len(t.segs), t.wall().Seconds())
	out.note("latency_tail_ms is the median over segments of each segment's p%g (%d samples, %d beyond it, in the last segment)", last.tailPct, last.samples, last.tailBeyond)
	out.note("cpu_ms_per_op is getrusage user+sys of the whole process, in-process client included")
	out.note("setup_s is the median of %d set-ups: %v", len(setups), setups)
}

// dominance reports whether a layer's share of op time is the majority
// when the workload predicts it (or the minority when it does not). A
// miss is printed, not turned into a failure: it is a finding about
// performance, not a wrong answer.
func dominance(out *outcome, layer, share string, v float64, predicted bool) {
	verdict := "confirmed"
	if (v > 0.5) != predicted {
		verdict = "MISSED"
	}
	out.note("dominance: %s %s %.3f, predicted %s: %s", layer, share, v, map[bool]string{true: "> 0.5", false: "<= 0.5"}[predicted], verdict)
}

// timeSetups runs setup setupRepeats times, closing all but the last,
// and returns the kept environment and every set-up duration.
func timeSetups[E any](setup func() (E, error), close func(E)) (E, []time.Duration, error) {
	var env E
	var ds []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			close(env)
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		ds = append(ds, time.Since(start))
		env = e
		runtime.GC()
	}
	return env, ds, nil
}
