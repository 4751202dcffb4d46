package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the tracer's
// epoch. Parent is -1 for a root; Op is the op the span belongs to (-1
// for spans outside any op, such as the primitive replays).
type span struct {
	Name       string
	Parent, Op int
	Start, End int64
}

// tracer keeps spans in memory until the run ends. On a nil *tracer
// add and placed record nothing, so an untraced pass can share the code
// of a traced one.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, op int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: end})
	return len(t.spans) - 1
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent, op int, fn func()) {
	start := t.now()
	fn()
	t.add(name, parent, op, start, t.now())
}

// placed records a span measured elsewhere (a replay of the same
// request against the layer alone) under parent, laid after the
// parent's earlier replayed children so that siblings never overlap.
// cursor holds the next free start per parent.
func (t *tracer) placed(name string, parent, op int, d time.Duration, cursor map[int]int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	start, ok := cursor[parent]
	if !ok {
		start = t.spans[parent].Start
	}
	t.mu.Unlock()
	cursor[parent] = start + int64(d)
	return t.add(name, parent, op, start, start+int64(d))
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (clipped to the span, overlaps counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time and duration per span name.
type layerTotals struct {
	self  map[string]int64
	total map[string]int64
}

func totals(spans []span) layerTotals {
	self := selfTimes(spans)
	lt := layerTotals{self: map[string]int64{}, total: map[string]int64{}}
	for i, s := range spans {
		lt.self[s.Name] += self[i]
		lt.total[s.Name] += s.End - s.Start
	}
	return lt
}

// residualPct is the share of the root "op" spans' time that no layer
// span accounts for: op latency minus the layers' self times, in percent
// of op latency. Only ops with at least one child are counted.
func residualPct(spans []span) float64 {
	self := selfTimes(spans)
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var resid, dur int64
	for i, s := range spans {
		if s.Name == "op" && hasChild[i] {
			resid += self[i]
			dur += s.End - s.Start
		}
	}
	return 100 * ratio(float64(resid), float64(dur))
}

// writeSpans writes the spans as tab-separated lines
// (id, parent, op, name, start_ns, end_ns) under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
