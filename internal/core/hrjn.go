package core

import (
	"container/heap"
	"fmt"

	"omega/internal/graph"
)

// This file implements the rank join of multi-conjunct queries (§3's query
// tree): a hash rank join (HRJN-style, after Ilyas et al.). Inputs ranked by
// distance are consumed incrementally, join candidates are buffered in hash
// tables on the shared variables, and a result is released once its total
// distance is at or below the threshold
//
//	τ = min(lastL + firstR, firstL + lastR)
//
// — the cheapest total any future combination could reach. A query of n
// conjuncts runs a left-deep cascade of n-1 binary HRJN operators over the
// planner's conjunct order (planQueryTree).

// bindingRow is a partial result: node values for a fixed variable schema,
// at a total distance.
type bindingRow struct {
	nodes []graph.NodeID
	dist  int32
}

// rankedInput yields bindingRows in non-decreasing distance over a fixed
// variable schema.
type rankedInput interface {
	schema() []string
	next() (bindingRow, bool, error)
}

// conjunctInput adapts a conjunct Iterator to rankedInput.
type conjunctInput struct {
	it   Iterator
	vars []string // schema: the conjunct's variable terms, in subject,object order
	subj bool     // subject is a variable
	obj  bool     // object is a variable, distinct from the subject's
}

func newConjunctInput(c Conjunct, it Iterator) *conjunctInput {
	ci := &conjunctInput{it: it}
	if c.Subject.IsVar {
		ci.subj = true
		ci.vars = append(ci.vars, c.Subject.Name)
	}
	if c.Object.IsVar && (!c.Subject.IsVar || c.Object.Name != c.Subject.Name) {
		ci.obj = true
		ci.vars = append(ci.vars, c.Object.Name)
	}
	return ci
}

func (ci *conjunctInput) schema() []string { return ci.vars }

func (ci *conjunctInput) next() (bindingRow, bool, error) {
	a, ok, err := ci.it.Next()
	if !ok || err != nil {
		return bindingRow{}, false, err
	}
	row := bindingRow{dist: a.Dist}
	if ci.subj {
		row.nodes = append(row.nodes, a.Src)
	}
	if ci.obj {
		row.nodes = append(row.nodes, a.Dst)
	}
	return row, true, nil
}

// hrjn is one binary hash rank join operator.
type hrjn struct {
	left, right rankedInput
	out         []string // output schema: left schema ++ (right \ shared)

	leftKey, rightKey   []int // positions of the shared variables
	rightExtra          []int // right positions appended to the output
	leftBuf, rightBuf   map[string][]bindingRow
	keyBuf              []graph.NodeID // scratch for join keys
	firstL, firstR      int32
	lastL, lastR        int32
	leftDone, rightDone bool

	queue resultHeap
	err   error
}

func newHRJN(left, right rankedInput) *hrjn {
	h := &hrjn{
		left: left, right: right,
		leftBuf:  map[string][]bindingRow{},
		rightBuf: map[string][]bindingRow{},
		firstL:   -1, firstR: -1,
	}
	ls, rs := left.schema(), right.schema()
	pos := map[string]int{}
	for i, v := range ls {
		pos[v] = i
	}
	h.out = append(h.out, ls...)
	for j, v := range rs {
		if i, shared := pos[v]; shared {
			h.leftKey = append(h.leftKey, i)
			h.rightKey = append(h.rightKey, j)
		} else {
			h.rightExtra = append(h.rightExtra, j)
			h.out = append(h.out, v)
		}
	}
	return h
}

func (h *hrjn) schema() []string { return h.out }

// key returns the join key of a row: its nodes at the shared-variable
// positions idx ("" when the inputs share none, a cross product).
func (h *hrjn) key(nodes []graph.NodeID, idx []int) string {
	h.keyBuf = h.keyBuf[:0]
	for _, i := range idx {
		h.keyBuf = append(h.keyBuf, nodes[i])
	}
	return rowKey(h.keyBuf)
}

func (h *hrjn) combine(l, r bindingRow) bindingRow {
	nodes := make([]graph.NodeID, 0, len(h.out))
	nodes = append(nodes, l.nodes...)
	for _, j := range h.rightExtra {
		nodes = append(nodes, r.nodes[j])
	}
	return bindingRow{nodes: nodes, dist: l.dist + r.dist}
}

// threshold returns the smallest total any future combination could have.
func (h *hrjn) threshold() (int32, bool) {
	switch {
	case h.leftDone && h.rightDone:
		return 0, false // no future combinations
	case h.leftDone:
		return h.firstL + h.lastR, h.firstL >= 0
	case h.rightDone:
		return h.lastL + h.firstR, h.firstR >= 0
	default:
		a, b := h.lastL+h.firstR, h.firstL+h.lastR
		if h.firstL < 0 || h.firstR < 0 {
			// One side has produced nothing yet: no combination exists until
			// it does, so nothing can be released.
			return 0, true
		}
		if a < b {
			return a, true
		}
		return b, true
	}
}

// pull advances the input whose frontier is cheaper (HRJN's alternation).
func (h *hrjn) pull() error {
	pullLeft := !h.leftDone && (h.rightDone || h.lastR >= h.lastL)
	if pullLeft {
		row, ok, err := h.left.next()
		if err != nil {
			return err
		}
		if !ok {
			h.leftDone = true
			return nil
		}
		if h.firstL < 0 {
			h.firstL = row.dist
		}
		h.lastL = row.dist
		k := h.key(row.nodes, h.leftKey)
		h.leftBuf[k] = append(h.leftBuf[k], row)
		for _, r := range h.rightBuf[k] {
			heap.Push(&h.queue, h.combine(row, r))
		}
		return nil
	}
	if h.rightDone {
		return nil
	}
	row, ok, err := h.right.next()
	if err != nil {
		return err
	}
	if !ok {
		h.rightDone = true
		return nil
	}
	if h.firstR < 0 {
		h.firstR = row.dist
	}
	h.lastR = row.dist
	k := h.key(row.nodes, h.rightKey)
	h.rightBuf[k] = append(h.rightBuf[k], row)
	for _, l := range h.leftBuf[k] {
		heap.Push(&h.queue, h.combine(l, row))
	}
	return nil
}

func (h *hrjn) next() (bindingRow, bool, error) {
	if h.err != nil {
		return bindingRow{}, false, h.err
	}
	for {
		// An exhausted, empty input can never contribute a combination.
		if (h.leftDone && h.firstL < 0) || (h.rightDone && h.firstR < 0) {
			return bindingRow{}, false, nil
		}
		if h.queue.Len() > 0 {
			top := h.queue[0]
			tau, more := h.threshold()
			if !more || top.dist <= tau {
				heap.Pop(&h.queue)
				return top, true, nil
			}
		} else if h.leftDone && h.rightDone {
			return bindingRow{}, false, nil
		}
		if err := h.pull(); err != nil {
			h.err = err
			return bindingRow{}, false, err
		}
	}
}

type resultHeap []bindingRow

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(bindingRow)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// hrjnQuery adapts a left-deep HRJN cascade to QueryIterator, projecting the
// head variables and de-duplicating projections (first = minimal distance).
type hrjnQuery struct {
	q       *Query
	raw     []Iterator // the conjunct iterators, for Stats aggregation
	root    rankedInput
	headIdx []int
	emitted *projDedup
}

func newHRJNQuery(q *Query, its []Iterator) (*hrjnQuery, error) {
	var root rankedInput = newConjunctInput(q.Conjuncts[0], its[0])
	for i := 1; i < len(its); i++ {
		root = newHRJN(root, newConjunctInput(q.Conjuncts[i], its[i]))
	}
	pos := map[string]int{}
	for i, v := range root.schema() {
		pos[v] = i
	}
	hq := &hrjnQuery{q: q, raw: its, root: root, emitted: newProjDedup(len(q.Head))}
	for _, hv := range q.Head {
		i, ok := pos[hv]
		if !ok {
			return nil, fmt.Errorf("core: head variable ?%s not bound in the body", hv)
		}
		hq.headIdx = append(hq.headIdx, i)
	}
	return hq, nil
}

// Stats implements StatsReporter by aggregating over the conjunct iterators
// (see aggregateStats).
func (hq *hrjnQuery) Stats() Stats { return aggregateStats(hq.raw) }

func (hq *hrjnQuery) Next() (QueryAnswer, bool, error) {
	for {
		row, ok, err := hq.root.next()
		if !ok || err != nil {
			return QueryAnswer{}, false, err
		}
		nodes := make([]graph.NodeID, len(hq.headIdx))
		for i, idx := range hq.headIdx {
			nodes[i] = row.nodes[idx]
		}
		if !hq.emitted.add(nodes) {
			continue
		}
		return QueryAnswer{Head: hq.q.Head, Nodes: nodes, Dist: row.dist}, true, nil
	}
}
