package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Every workload derives its op list from the seed and the requested run
// length alone, so two runs of one seed and length do exactly the same
// work. Nothing here looks at a clock.

// passes returns how many passes over a pool fit a run of the given
// length, when one pass takes about passSeconds on the reference host.
func passes(seconds int, passSeconds float64) int {
	return max(1, int(math.Round(float64(seconds)/passSeconds)))
}

// shuffledPasses returns the pool indices 0..poolLen-1, each exactly
// once per pass, every pass in its own seeded order.
func shuffledPasses(rng *rand.Rand, poolLen, passes int) []int {
	ops := make([]int, 0, poolLen*passes)
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(poolLen) {
			ops = append(ops, i)
		}
	}
	return ops
}

// zipf draws ranks in [0, n) with P(r) proportional to 1/(r+1)^s.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// randomOnSet returns size distinct points of B^n in ascending order.
func randomOnSet(rng *rand.Rand, n, size int) []uint64 {
	perm := rng.Perm(1 << n)[:size]
	on := make([]uint64, size)
	for i, p := range perm {
		on[i] = uint64(p)
	}
	sort.Slice(on, func(i, j int) bool { return on[i] < on[j] })
	return on
}

// servePair is one (function, form) pair of the serve-hot workload.
type servePair struct {
	n    int
	form string
	on   []uint64
	// perms are the variable orders the pair is also requested in
	// (perms[0] is the identity).
	perms [][]int
}

// serveForms is the form rotation of serve-hot; "auto" races the four
// backends.
var serveForms = []string{"spp", "sop", "esop", "dsop", "auto"}

// servePairs builds count pairs. The arity, form and ON-set density of a
// pair follow from its rank alone, so the hot ranks cost the same kind of
// work under every seed; the seed picks the minterms and the
// permutations.
func servePairs(rng *rand.Rand, count, permVariants int) []servePair {
	pairs := make([]servePair, count)
	for r := range pairs {
		n := 6 + r%4
		p := servePair{n: n, form: serveForms[(r/4)%len(serveForms)]}
		p.on = randomOnSet(rng, n, (1<<n)*serveDensityPct/100)
		p.perms = append(p.perms, identity(n))
		for v := 1; v < permVariants; v++ {
			p.perms = append(p.perms, rng.Perm(n))
		}
		pairs[r] = p
	}
	return pairs
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// serveOp names one request: a pair and the variable order it is sent
// in (0 = as generated).
type serveOp struct {
	pair, variant int
}

// serveStream draws count requests: pair ranks from a Zipf law, and a
// permuted variable order for a permutedPct share of them.
func serveStream(rng *rand.Rand, pairs []servePair, count int, s float64, permutedPct int) []serveOp {
	z := newZipf(len(pairs), s)
	ops := make([]serveOp, count)
	for i := range ops {
		op := serveOp{pair: z.draw(rng)}
		if rng.Intn(100) < permutedPct {
			op.variant = 1 + rng.Intn(len(pairs[op.pair].perms)-1)
		}
		ops[i] = op
	}
	return ops
}

// edit is one net edit: points turned ON and points turned OFF, no
// point in both lists and none repeated.
type edit struct {
	add, remove []uint64
}

// netEdit draws k edits against the ON-set on (a set over B^n): k/2
// OFF points turned ON and k-k/2 ON points turned OFF. Each point is
// drawn from its current side of the partition, so no point is both
// added and removed; the ON-set keeps at least one point. It updates
// on in place.
func netEdit(rng *rand.Rand, n int, on map[uint64]bool, k int) edit {
	var e edit
	space := 1 << n
	picked := map[uint64]bool{}
	for len(e.add) < k/2 && len(on)+len(e.add) < space {
		p := uint64(rng.Intn(space))
		if !on[p] && !picked[p] {
			picked[p] = true
			e.add = append(e.add, p)
		}
	}
	onPts := sortedKeys(on)
	for len(e.remove) < k-k/2 && len(e.remove) < len(onPts)-1 {
		p := onPts[rng.Intn(len(onPts))]
		if !picked[p] {
			picked[p] = true
			e.remove = append(e.remove, p)
		}
	}
	for _, p := range e.add {
		on[p] = true
	}
	for _, p := range e.remove {
		delete(on, p)
	}
	return e
}

func sortedKeys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// walk is one base function of edit-loop and its edit script; after[i]
// is the ON-set once edits[0..i] are applied.
type walk struct {
	base  []uint64
	edits []edit
	after [][]uint64
}

// newWalk draws a base of onCount points in B^n and steps net edits of
// k points each.
func newWalk(rng *rand.Rand, n, onCount, steps, k int) walk {
	w := walk{base: randomOnSet(rng, n, onCount)}
	on := map[uint64]bool{}
	for _, p := range w.base {
		on[p] = true
	}
	for i := 0; i < steps; i++ {
		w.edits = append(w.edits, netEdit(rng, n, on, k))
		w.after = append(w.after, sortedKeys(on))
	}
	return w
}

// minimizeBody renders a full /v1/minimize request.
func minimizeBody(n int, on []uint64, form string) []byte {
	b := fmt.Appendf(nil, `{"n":%d,"on":%s`, n, jsonPoints(on))
	if form != "" {
		b = fmt.Appendf(b, `,"form":%q`, form)
	}
	return append(b, '}')
}

// deltaBody renders a delta request chained on base.
func deltaBody(base string, e edit) []byte {
	return fmt.Appendf(nil, `{"base":%q,"add":%s,"remove":%s}`, base, jsonPoints(e.add), jsonPoints(e.remove))
}

func jsonPoints(pts []uint64) []byte {
	b := []byte{'['}
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", p)
	}
	return append(b, ']')
}
