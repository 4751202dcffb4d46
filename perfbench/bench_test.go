package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestOpListsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) any {
		rng := rand.New(rand.NewSource(seed))
		solo := shuffledPasses(rng, 50, 3)
		pairs := servePairs(rng, 40, servePermVariants)
		stream := serveStream(rng, pairs, 500, serveZipfS, servePermutedPct)
		return []any{solo, pairs, stream, editWalks(seed, 20)}
	}
	if !reflect.DeepEqual(gen(7), gen(7)) {
		t.Fatal("one seed gave two different op lists")
	}
	if reflect.DeepEqual(gen(7), gen(8)) {
		t.Fatal("two seeds gave the same op lists")
	}
}

func TestShuffledPassesVisitEachOutputOncePerPass(t *testing.T) {
	ops := shuffledPasses(rand.New(rand.NewSource(1)), 30, 4)
	for p := 0; p < 4; p++ {
		pass := append([]int(nil), ops[p*30:(p+1)*30]...)
		sort.Ints(pass)
		for i, v := range pass {
			if v != i {
				t.Fatalf("pass %d is not a permutation of the pool: %v", p, pass)
			}
		}
	}
}

func TestEditsAreNet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, on, k int }{{9, 96, 4}, {4, 3, 5}, {3, 7, 4}, {5, 1, 6}} {
		w := newWalk(rng, tc.n, tc.on, 200, tc.k)
		on := map[uint64]bool{}
		for _, p := range w.base {
			on[p] = true
		}
		for s, e := range w.edits {
			seen := map[uint64]bool{}
			for _, p := range append(append([]uint64(nil), e.add...), e.remove...) {
				if seen[p] {
					t.Fatalf("%+v step %d: point %d edited twice in one edit %+v", tc, s, p, e)
				}
				seen[p] = true
			}
			for _, p := range e.add {
				if on[p] {
					t.Fatalf("%+v step %d: added point %d is already ON", tc, s, p)
				}
				on[p] = true
			}
			for _, p := range e.remove {
				if !on[p] {
					t.Fatalf("%+v step %d: removed point %d is not ON", tc, s, p)
				}
				delete(on, p)
			}
			if len(on) == 0 {
				t.Fatalf("%+v step %d: ON-set emptied", tc, s)
			}
			if !reflect.DeepEqual(sortedKeys(on), w.after[s]) {
				t.Fatalf("%+v step %d: recorded ON-set differs from the edits", tc, s)
			}
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = time.Duration(i)
		}
		pct, v, beyond := tail(lat)
		if got := n - 1 - int(v); got != beyond {
			t.Fatalf("n=%d: reported %d beyond, counted %d", n, beyond, got)
		}
		if n > 2*minBeyond && beyond < minBeyond {
			t.Fatalf("n=%d: p%g has only %d samples beyond", n, pct, beyond)
		}
		for _, p := range tailLadder {
			if p > pct && n-1-nearestRank(p, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%g but p%g also has %d beyond", n, pct, p, minBeyond)
			}
		}
	}
	if pct, _, _ := tail(make([]time.Duration, 100000)); pct != 99 {
		t.Fatalf("100000 samples: chose p%g, want p99", pct)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "a.child", Parent: 1, Start: 15, End: 20},
		{Name: "late", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "op", Parent: -1, Start: 200, End: 210}, // no children: not in the residual
	}
	// op: 100 minus the union [10,60] and [90,100] = 40.
	want := []int64{40, 25, 30, 5, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if got := residualPct(spans); got != 40 {
		t.Fatalf("residual %v%%, want 40%%", got)
	}
	lt := totals(spans)
	if lt.self["op"] != 50 || lt.total["op"] != 110 {
		t.Fatalf("op totals %+v", lt)
	}
}

func TestPlacedSpansDoNotOverlap(t *testing.T) {
	tr := newTracer()
	op := tr.add("op", -1, 0, 1000, 2000)
	cursor := map[int]int64{}
	a := tr.placed("a", op, 0, 300, cursor)
	b := tr.placed("b", op, 0, 200, cursor)
	c := tr.placed("c", a, 0, 100, cursor)
	got := [][2]int64{
		{tr.spans[a].Start, tr.spans[a].End},
		{tr.spans[b].Start, tr.spans[b].End},
		{tr.spans[c].Start, tr.spans[c].End},
	}
	want := [][2]int64{{1000, 1300}, {1300, 1500}, {1000, 1100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placed spans %v, want %v", got, want)
	}
	if r := residualPct(tr.spans); r != 50 {
		t.Fatalf("residual %v%%, want 50%%", r)
	}
}

func TestCheckForm(t *testing.T) {
	parity := []uint64{1, 2, 4, 7}
	for _, tc := range []struct {
		kind, form string
		lits       int
		ok         bool
	}{
		{"spp", "(x0 ⊕ x1 ⊕ x2)", 3, true},
		{"esop", "x0 ⊕ x1 ⊕ x2", 3, true},
		{"dsop", "x̄0·x̄1·x2 ⊕ x̄0·x1·x̄2 ⊕ x0·x̄1·x̄2 ⊕ x0·x1·x2", 12, true},
		{"sop", "x̄0·x̄1·x2 + x̄0·x1·x̄2 + x0·x̄1·x̄2 + x0·x1·x2", 12, true},
		{"sop", "x̄0·x̄1·x2 + x̄0·x1·x̄2 + x0·x̄1·x̄2", 0, false},
		{"dsop", "x2 ⊕ x̄0·x1·x̄2 ⊕ x0·x̄1·x̄2 ⊕ x0·x1", 0, false},
		{"esop", "1 ⊕ x0 ⊕ x1 ⊕ x2", 0, false},
	} {
		lits, err := checkForm(tc.kind, 3, tc.form, parity)
		if (err == nil) != tc.ok || (tc.ok && lits != tc.lits) {
			t.Errorf("%s %q: literals %d, err %v; want ok=%v literals %d", tc.kind, tc.form, lits, err, tc.ok, tc.lits)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, perfbench %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}
