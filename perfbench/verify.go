package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// checkForm parses a form the service rendered and evaluates it on
// every point of B^n against the ON-set on (the workloads send no
// don't-cares, so every point is a care point). It returns the form's
// literal count. Per docs/forms.md, spp and sop forms are ORs of their
// terms, while esop and dsop terms are combined by EXOR (a DSOP's
// disjoint OR is an EXOR, so an overlapping DSOP fails the check).
func checkForm(kind string, n int, form string, on []uint64) (int, error) {
	var terms []core.Form
	switch kind {
	case "spp", "sop":
		f, err := core.ParseForm(n, form)
		if err != nil {
			return 0, err
		}
		terms = []core.Form{f}
	case "esop", "dsop":
		if form != "0" {
			for _, t := range strings.Split(form, "⊕") {
				f, err := core.ParseForm(n, strings.TrimSpace(t))
				if err != nil {
					return 0, err
				}
				terms = append(terms, f)
			}
		}
	default:
		return 0, fmt.Errorf("unknown form kind %q", kind)
	}
	want := make([]bool, 1<<n)
	for _, p := range on {
		want[p] = true
	}
	for p := range want {
		got := false
		for _, t := range terms {
			got = got != t.Eval(uint64(p))
		}
		if got != want[p] {
			return 0, fmt.Errorf("%s form %q is %v at point %d, function is %v", kind, form, got, p, want[p])
		}
	}
	lits := 0
	for _, t := range terms {
		lits += t.Literals()
	}
	return lits, nil
}
