package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/l4all"
	"omega/internal/ontology"
)

// The HRJN cascade must emit exactly the oracle's projections at their
// minimal distances, in non-decreasing order.
func TestHRJNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	ont := testOnt()
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		q := &Query{
			Head: []string{"X", "Z"},
			Conjuncts: []Conjunct{
				conj("?X", []string{"p", "p|q"}[rng.Intn(2)], "?Y", automaton.Exact),
				conj("?Y", []string{"q", "r"}[rng.Intn(2)], "?Z", automaton.Approx),
			},
		}
		requireOracle(t, collectQuery(t, g, ont, q, Options{}), joinOracle(t, g, ont, q))
	}
}

func TestHRJNThreeConjuncts(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "1", "p", "2")
	mustAdd(t, b, "2", "q", "3")
	mustAdd(t, b, "3", "r", "4")
	mustAdd(t, b, "2", "q", "5")
	mustAdd(t, b, "5", "r", "6")
	g := b.Freeze()
	q := &Query{
		Head: []string{"A", "D"},
		Conjuncts: []Conjunct{
			conj("?A", "p", "?B", automaton.Exact),
			conj("?B", "q", "?C", automaton.Exact),
			conj("?C", "r", "?D", automaton.Exact),
		},
	}
	got := collectQuery(t, g, nil, q, Options{})
	if len(got) != 2 {
		t.Fatalf("chain rows = %d, want 2", len(got))
	}
	requireOracle(t, got, joinOracle(t, g, nil, q))
}

func TestHRJNMixedDistances(t *testing.T) {
	// APPROX on both sides: totals must come out in non-decreasing order
	// even when the two inputs interleave distances.
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Approx),
			conj("?Y", "q", "?Z", automaton.Approx),
		},
	}
	requireOracle(t, collectQuery(t, g, ont, q, Options{}), joinOracle(t, g, ont, q))
}

func TestHRJNCrossProduct(t *testing.T) {
	// Disjoint variables: a pure cross product still works (empty join key).
	b := graph.NewBuilder()
	mustAdd(t, b, "a", "p", "b")
	mustAdd(t, b, "c", "q", "d")
	mustAdd(t, b, "e", "q", "f")
	g := b.Freeze()
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Z", "q", "?W", automaton.Exact),
		},
	}
	got := collectQuery(t, g, nil, q, Options{})
	if len(got) != 2 {
		t.Fatalf("cross product rows = %d, want 2", len(got))
	}
	requireOracle(t, got, joinOracle(t, g, nil, q))
}

func TestHRJNEmptyInputTerminates(t *testing.T) {
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Y", "nolabel", "?Z", automaton.Exact),
		},
	}
	got := collectQuery(t, g, ont, q, Options{})
	if len(got) != 0 {
		t.Fatalf("rows = %v, want none", got)
	}
}

func TestHRJNBudgetErrorPropagates(t *testing.T) {
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Approx),
			conj("?Y", "q", "?Z", automaton.Approx),
		},
	}
	it, err := OpenQuery(g, ont, q, Options{MaxTuples: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, ok, err := it.Next()
		if err == ErrTupleBudget {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("completed under a 3-tuple budget")
		}
	}
	t.Fatal("budget error never surfaced")
}

// A reflexive conjunct (?X, R, ?X) binds one variable at both ends; the
// conjunct iterator keeps only its reflexive answers, and the join must key
// it on that single variable.
func TestHRJNReflexiveConjunct(t *testing.T) {
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p.p.p", "?X", automaton.Approx),
			conj("?X", "q", "?Z", automaton.Approx),
		},
	}
	got := collectQuery(t, g, ont, q, Options{})
	if len(got) == 0 || got[0].Dist != 0 {
		t.Fatalf("rows = %v, want a distance-0 row first (a on the p-cycle, a -q-> c)", got)
	}
	requireOracle(t, got, joinOracle(t, g, ont, q))

	rng := rand.New(rand.NewSource(1616))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		q := &Query{
			Head: []string{"X", "Z"},
			Conjuncts: []Conjunct{
				conj("?X", "p", "?X", []automaton.Mode{automaton.Exact, automaton.Approx}[rng.Intn(2)]),
				conj("?X", "q", "?Z", automaton.Approx),
			},
		}
		requireOracle(t, collectQuery(t, g, ont, q, Options{}), joinOracle(t, g, ont, q))
	}
}

// The three join shapes of the serving benchmark's join_topk workload, on
// L1 and drained (no limit), against the oracle.
func TestHRJNServingJoinsMatchOracle(t *testing.T) {
	g, ont := l4all.Generate(l4all.L1)
	for _, q := range []*Query{
		{Head: []string{"X", "Z"}, Conjuncts: []Conjunct{
			conj("?X", "next", "?Y", automaton.Exact),
			conj("?Y", "job", "?Z", automaton.Exact),
		}},
		{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{
			conj("?X", "job", "?Y", automaton.Exact),
			conj("?Y", "type", "Occupation", automaton.Exact),
		}},
		{Head: []string{"X", "Z"}, Conjuncts: []Conjunct{
			conj("?X", "qualif", "?Y", automaton.Exact),
			conj("?Y", "level", "?Z", automaton.Relax),
		}},
	} {
		got := collectQuery(t, g, ont, q, Options{})
		if len(got) == 0 {
			t.Fatalf("%v: no rows", q.Conjuncts)
		}
		requireOracle(t, got, joinOracle(t, g, ont, q))
	}
}

// --- planner ---------------------------------------------------------------

func TestPlanQueryTreeOrdering(t *testing.T) {
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact), // var-var
			conj("?Y", "q", "c", automaton.Exact),  // one const
			conj("a", "r", "b", automaton.Exact),   // two consts
		},
	}
	order := planQueryTree(q)
	if order[0] != 2 {
		t.Fatalf("plan order = %v, want the two-constant conjunct first", order)
	}
	// Next pick prefers connection to bound vars; the const-const conjunct
	// binds nothing, so the single-const conjunct (fewer vars) goes next,
	// then the var-var conjunct connected through ?Y.
	if order[1] != 1 || order[2] != 0 {
		t.Fatalf("plan order = %v, want [2 1 0]", order)
	}
}

func TestPlanPrefersConnectedOverAnchored(t *testing.T) {
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Z", "q", "c", automaton.Exact),  // anchored but disconnected from ?X/?Y
			conj("?Y", "r", "?W", automaton.Exact), // connected to first pick
		},
	}
	order := planQueryTree(q)
	// First pick: the anchored conjunct (index 1). Then nothing connects to
	// ?Z, so connectivity is false for both remaining; the lower-score one…
	// both score 2 — body order wins: index 0 then 2.
	if order[0] != 1 {
		t.Fatalf("plan order = %v, want anchored first", order)
	}
	// After index 0 is placed, index 2 connects through ?Y.
	if order[1] != 0 || order[2] != 2 {
		t.Fatalf("plan order = %v, want [1 0 2]", order)
	}
}

func TestReorderConjunctsPreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	ont := testOnt()
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, ont)
		q := &Query{
			Head: []string{"X", "Z"},
			Conjuncts: []Conjunct{
				conj("?X", "p", "?Y", automaton.Exact),
				conj("?Y", "q", "?Z", automaton.Exact),
				conj("?Z", "r", "?W", automaton.Exact),
			},
		}
		want := joinOracle(t, g, ont, q)
		requireOracle(t, collectQuery(t, g, ont, q, Options{}), want)
		requireOracle(t, collectBodyOrder(t, g, ont, q), want)
	}
}

// --- helpers ---------------------------------------------------------------

func collectQuery(t *testing.T, g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options) []QueryAnswer {
	t.Helper()
	it, err := OpenQuery(g, ont, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []QueryAnswer
	last := int32(-1)
	for {
		a, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if a.Dist < last {
			t.Fatalf("query answers not monotone: %d after %d", a.Dist, last)
		}
		last = a.Dist
		out = append(out, a)
	}
}

// collectBodyOrder runs the HRJN cascade over q's conjuncts in body order,
// bypassing the planner that PrepareQuery always applies.
func collectBodyOrder(t *testing.T, g *graph.Graph, ont *ontology.Ontology, q *Query) []QueryAnswer {
	t.Helper()
	its := make([]Iterator, len(q.Conjuncts))
	for i, c := range q.Conjuncts {
		it, err := OpenConjunct(g, ont, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		its[i] = it
	}
	hq, err := newHRJNQuery(q, its)
	if err != nil {
		t.Fatal(err)
	}
	return drainQuery(t, hq, 1<<30)
}

// joinOracle is the definition of a multi-conjunct query's answer: for each
// projected head row (keyed by rowKey), the minimum total distance over all
// binding-compatible combinations of the conjuncts' fully drained answers.
// It is a plain nested loop over those combinations — no ranking, no
// planner, no hash tables.
func joinOracle(t *testing.T, g *graph.Graph, ont *ontology.Ontology, q *Query) map[string]int32 {
	t.Helper()
	vars := map[string]int{}
	slot := func(term Term) int {
		if !term.IsVar {
			return -1
		}
		if i, ok := vars[term.Name]; ok {
			return i
		}
		vars[term.Name] = len(vars)
		return len(vars) - 1
	}
	answers := make([][]Answer, len(q.Conjuncts))
	subj := make([]int, len(q.Conjuncts))
	obj := make([]int, len(q.Conjuncts))
	for i, c := range q.Conjuncts {
		it, err := OpenConjunct(g, ont, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = drain(t, it, 1<<30)
		subj[i], obj[i] = slot(c.Subject), slot(c.Object)
	}
	binding := make([]graph.NodeID, len(vars))
	bound := make([]bool, len(vars))
	// bind binds variable slot v to n, reporting whether that is consistent
	// and whether v was newly bound (and must be unbound on the way back).
	bind := func(v int, n graph.NodeID) (ok, fresh bool) {
		switch {
		case v < 0:
			return true, false
		case bound[v]:
			return binding[v] == n, false
		}
		binding[v], bound[v] = n, true
		return true, true
	}
	want := map[string]int32{}
	row := make([]graph.NodeID, len(q.Head))
	var walk func(i int, dist int32)
	walk = func(i int, dist int32) {
		if i == len(q.Conjuncts) {
			for k, h := range q.Head {
				row[k] = binding[vars[h]]
			}
			k := rowKey(row)
			if d, ok := want[k]; !ok || dist < d {
				want[k] = dist
			}
			return
		}
		for _, a := range answers[i] {
			okS, freshS := bind(subj[i], a.Src)
			okO, freshO := false, false
			if okS {
				okO, freshO = bind(obj[i], a.Dst)
			}
			if okS && okO {
				walk(i+1, dist+a.Dist)
			}
			if freshS {
				bound[subj[i]] = false
			}
			if freshO {
				bound[obj[i]] = false
			}
		}
	}
	walk(0, 0)
	return want
}

// requireOracle asserts that got is the oracle's answer: the same row set,
// each row once and at its oracle distance. Non-decreasing order is checked
// by collectQuery and drainQuery as the rows are pulled.
func requireOracle(t *testing.T, got []QueryAnswer, want map[string]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, oracle %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for _, r := range got {
		k := rowKey(r.Nodes)
		if seen[k] {
			t.Fatalf("row %v emitted twice", r.Nodes)
		}
		seen[k] = true
		d, ok := want[k]
		if !ok {
			t.Fatalf("row %v not in the oracle's answer", r.Nodes)
		}
		if d != r.Dist {
			t.Fatalf("row %v distance %d, oracle %d", r.Nodes, r.Dist, d)
		}
	}
}
