// Package dstruct provides the evaluation data structures of §3.3–3.4,
// substituting for the C5 Generic Collection library used by the paper's
// implementation: the tuple dictionary D_R keyed by (distance, final-flag)
// with O(1) insertion and removal at the head of each list, the hashed
// visited set with O(1) lookup, and the answer registry answers_R.
//
// The hot-path structures are flat and index-addressed: D_R is a monotone
// bucket queue (an array of per-distance tuple stacks with an advancing
// cursor), and the visited set and answer registry are open-addressed hash
// tables over packed integer keys. RefDict retains the original
// map-plus-binary-heap dictionary as a differential-testing reference.
package dstruct

import (
	"math"

	"omega/internal/graph"
)

// Tuple is a traversal tuple (v, n, s, d, f): visiting node n in automaton
// state s at distance d, having started from node v; f marks 'final' tuples,
// which are answers waiting to be emitted.
type Tuple struct {
	V, N  graph.NodeID
	S     int32
	D     int32
	Final bool
}

// bucket holds the tuples of one distance, split by final flag. In Dict both
// lists are LIFO stacks, matching the paper's add/remove at the head of a
// linked list; in Deferred the same layout holds FIFO generation order.
type bucket struct {
	final    []Tuple
	nonFinal []Tuple
}

// push routes t into the sub-list Dict ordering expects: final tuples to the
// final list unless the noFinalFirst ablation collapses the distinction.
// Deferred uses the identical routing so its buckets can be adopted wholesale.
func (b *bucket) push(t Tuple, noFinalFirst bool) {
	if t.Final && !noFinalFirst {
		b.final = append(b.final, t)
	} else {
		b.nonFinal = append(b.nonFinal, t)
	}
}

// growBuckets extends a distance-indexed bucket array to cover distance d,
// over-allocating to amortise repeated extension and capping at the flat
// range bound.
func growBuckets(buckets []bucket, d int) []bucket {
	capWant := d + 1
	if c := 2 * len(buckets); c > capWant {
		capWant = c
	}
	if capWant > maxBucketDist {
		capWant = maxBucketDist
	}
	next := make([]bucket, capWant)
	copy(next, buckets)
	return next
}

// maxBucketDist bounds the flat bucket array: distances in [0, maxBucketDist)
// take the index-addressed fast path; anything else (negative or huge
// distances, reachable only through extreme custom edit/relax costs) lands in
// a sparse map+heap overflow so no cost configuration can panic the queue or
// blow up its memory.
const maxBucketDist = 1 << 16

// Dict is the dictionary D_R. Keys order by distance ascending; at equal
// distance, final tuples are removed before non-final ones — the refinement
// §3.3 reports as returning answers earlier and rescuing queries that
// previously exhausted memory. Within a key, tuples are a LIFO stack.
//
// The implementation is a monotone bucket queue: buckets is indexed directly
// by distance and cursor is a lower bound on the minimal non-empty distance.
// GetNext pops in non-decreasing distance and every insertion is at a
// distance no smaller than the last pop, so the cursor only advances;
// insertions below the cursor (which evaluation never produces) pull it back,
// keeping the structure correct for arbitrary workloads. Distances outside
// [0, maxBucketDist) go to the sparse overflow dictionary; the two ranges are
// disjoint, so overall ordering is negative overflow, then buckets, then
// large overflow.
type Dict struct {
	buckets      []bucket
	cursor       int
	overflow     *RefDict // lazily created; holds out-of-range distances
	size         int
	adds         int // total insertions over the Dict's lifetime
	noFinalFirst bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{}
}

// NewDictNoFinalFirst returns a dictionary that orders purely by distance,
// ignoring the final flag (ablation of the §3.3 refinement).
func NewDictNoFinalFirst() *Dict {
	return &Dict{noFinalFirst: true}
}

// Add inserts t.
func (dd *Dict) Add(t Tuple) {
	d := int(t.D)
	if d < 0 || d >= maxBucketDist {
		if dd.overflow == nil {
			dd.overflow = NewRefDict(dd.noFinalFirst)
		}
		dd.overflow.Add(t)
		dd.size++
		dd.adds++
		return
	}
	if d >= len(dd.buckets) {
		dd.buckets = growBuckets(dd.buckets, d)
	}
	dd.buckets[d].push(t, dd.noFinalFirst)
	if d < dd.cursor {
		dd.cursor = d
	}
	dd.size++
	dd.adds++
}

// negOverflowMin returns the minimal overflow distance when it is negative —
// negative distances order before every bucket.
func (dd *Dict) negOverflowMin() (int32, bool) {
	if dd.overflow == nil || dd.overflow.Len() == 0 {
		return 0, false
	}
	if md, ok := dd.overflow.MinDistance(); ok && md < 0 {
		return md, true
	}
	return 0, false
}

// Remove pops the tuple with minimal key (distance first, final preferred).
func (dd *Dict) Remove() (Tuple, bool) {
	if _, neg := dd.negOverflowMin(); neg {
		t, ok := dd.overflow.Remove()
		if ok {
			dd.size--
		}
		return t, ok
	}
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if n := len(b.final); n > 0 {
			t := b.final[n-1]
			b.final = b.final[:n-1]
			dd.size--
			return t, true
		}
		if n := len(b.nonFinal); n > 0 {
			t := b.nonFinal[n-1]
			b.nonFinal = b.nonFinal[:n-1]
			dd.size--
			return t, true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		t, ok := dd.overflow.Remove()
		if ok {
			dd.size--
		}
		return t, ok
	}
	return Tuple{}, false
}

// Len returns the number of stored tuples.
func (dd *Dict) Len() int { return dd.size }

// Reset restores the dictionary to its empty state while retaining the bucket
// array and every per-bucket slice capacity, so a pooled reuse inserts on the
// steady path without allocating. Tuples hold no pointers, so truncating the
// slices pins no garbage. noFinalFirst is re-armed because a pooled dictionary
// may serve engines with different ablation settings. The rare out-of-range
// overflow dictionary is dropped rather than recycled (it only exists under
// extreme custom costs, and its map+heap does not reset cheaply).
func (dd *Dict) Reset(noFinalFirst bool) {
	for i := range dd.buckets {
		b := &dd.buckets[i]
		b.final = b.final[:0]
		b.nonFinal = b.nonFinal[:0]
	}
	dd.cursor = 0
	dd.overflow = nil
	dd.size = 0
	dd.adds = 0
	dd.noFinalFirst = noFinalFirst
}

// Adds returns the lifetime number of insertions (the memory-pressure metric
// used to emulate the paper's out-of-memory failures).
func (dd *Dict) Adds() int { return dd.adds }

// MinDistance returns the smallest distance present, if any. GetNext uses it
// to decide when to pull the next batch of initial nodes ("no distance 0
// tuples in D_R", §3.4 lines 15–17).
func (dd *Dict) MinDistance() (int32, bool) {
	if md, neg := dd.negOverflowMin(); neg {
		return md, true
	}
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if len(b.final) > 0 || len(b.nonFinal) > 0 {
			return int32(dd.cursor), true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		return dd.overflow.MinDistance()
	}
	return 0, false
}

// minKey returns the packed (distance, final) key the next Remove would pop,
// if any. SpillDict uses it to arbitrate between resident and spilled tuples.
func (dd *Dict) minKey() (int64, bool) {
	if _, neg := dd.negOverflowMin(); neg {
		return dd.overflow.minKey()
	}
	for dd.cursor < len(dd.buckets) {
		b := &dd.buckets[dd.cursor]
		if len(b.final) > 0 {
			return key(int32(dd.cursor), true), true
		}
		if len(b.nonFinal) > 0 {
			return key(int32(dd.cursor), false), true
		}
		dd.cursor++
	}
	if dd.overflow != nil {
		return dd.overflow.minKey()
	}
	return 0, false
}

// Err implements TupleDict for the in-memory Dict.
func (dd *Dict) Err() error { return nil }

// Close implements TupleDict for the in-memory Dict.
func (dd *Dict) Close() error { return nil }

// Memory accounting (§ memory governance). Every structure reports its
// resident footprint in bytes so the evaluator can aggregate per-execution
// live bytes and enforce soft/hard watermarks. The figures are capacity-based
// estimates from fixed per-entry sizes — close enough to steer spill
// escalation and budget aborts, cheap enough to sample on the hot path.
const (
	tupleMem    = 20 // Tuple: 4×int32 + bool, padded
	bucketMem   = 48 // bucket: two slice headers
	visEntryMem = 16 // visEntry: uint64 + 2×int32
	answerMem   = 12 // Answer: 3×int32
)

// Bytes returns the approximate resident footprint of the dictionary,
// counting slice capacities (what the process actually holds), not live
// tuples. Cost is O(len(buckets)); callers sample rather than call per add.
func (dd *Dict) Bytes() int64 {
	n := int64(cap(dd.buckets)) * bucketMem
	for i := range dd.buckets {
		b := &dd.buckets[i]
		n += int64(cap(b.final)+cap(b.nonFinal)) * tupleMem
	}
	if dd.overflow != nil {
		n += dd.overflow.Bytes()
	}
	return n
}

// Bytes returns the approximate resident footprint of the visited set: its
// table and, once allocated, its one-byte cells.
func (vs *Visited) Bytes() int64 {
	return int64(len(vs.entries))*visEntryMem + int64(cap(vs.cells))
}

// Bytes returns the approximate resident footprint of the set.
func (s *U64Set) Bytes() int64 {
	return int64(len(s.entries)) * 8
}

// Bytes returns the approximate resident footprint of the registry.
func (a *Answers) Bytes() int64 {
	return a.pairs.Bytes() + int64(cap(a.order))*answerMem
}

// Visited is the set of processed (v, n, s) triples (visited_R). It starts
// as an open-addressed, linear-probed table over the packed (v, n) word and
// the state; states must be non-negative (s+1 is the occupancy marker).
//
// Each entry also carries the best distance at which its triple is pending —
// parked in the deferred frontier or re-injected and not yet popped — so the
// distance-aware evaluator can skip parking a copy that a strictly cheaper
// pending copy already dominates (see Pend). A triple is then in one of two
// states: pending (best is the smallest pending distance) or visited (best
// is visitedBest). Membership (Contains, Add, Len) sees visited triples only;
// pending entries are invisible to it.
//
// A set whose key space was declared with SetShape has a second, compact
// form for single-source evaluations: one byte per (n, s) cell of the
// product graph (see cellVisited). The set moves its triples into the cells
// when it outgrows the hash table's trust threshold with every key sharing
// one source, so a large ranked frontier probes a node×state byte array —
// small enough to stay in the core's cache — instead of a hint-sized table
// of 16-byte entries. A key the cells cannot hold (another source, a
// distance outside the cell range) moves the triples back into the table for
// the rest of the execution. Both forms answer every call identically.
type Visited struct {
	entries []visEntry
	n       int // visited triples
	used    int // stored triples: visited plus pending
	hint    int // expected population; 0 = none (double only)

	// Compact form. nodes × states is the declared key space (0 when
	// undeclared); src is the first stored key's source.
	nodes, states int
	src           graph.NodeID
	noCells       bool    // some stored key or distance does not fit the cells
	dense         bool    // triples live in cells; entries is empty
	cells         []uint8 // n*states+s → 0 empty, pending best, or cellVisited
	lo, hi        int     // cells touched while dense: [lo, hi)
}

type visEntry struct {
	vn   uint64
	s1   int32 // state+1; 0 marks an empty slot
	best int32 // smallest pending distance, or visitedBest once popped
}

// visitedBest marks a visited entry. Pending distances are always parked
// distances, which exceed ψ ≥ 0, so no pending distance can equal it; and
// because it is below every such distance, a visited triple dominates every
// later Pend exactly as a cheaper pending copy does.
const visitedBest = math.MinInt32

// Cell encoding of the compact form: 0 is an empty cell, 1..cellMaxPend a
// pending triple's best distance, cellVisited a visited triple. A pending
// distance outside [1, cellMaxPend] does not fit and moves the set back to
// its table.
const (
	cellMaxPend = 254
	cellVisited = 255
)

// denseMaxCells bounds the compact form: a product graph of more cells keeps
// the hash table. At the bound the cells take 16 MiB, the footprint of the
// largest hint-sized table (tableMaxPresize entries) they stand in for.
const denseMaxCells = 1 << 24

// denseAfter is the population at which a shaped single-source set moves to
// its cells: the point where the table, grown to tableJumpCap, would next
// jump to its hinted size. Selective executions stay in the small table.
const denseAfter = 3 * tableJumpCap / 4

const visitedMinCap = 64 // power of two

// tableMaxPresize caps hint-driven sizing of the open-addressed tables:
// hints are estimates (node count × automaton states can wildly overshoot a
// selective query), so the hint-jump is bounded and growth beyond it falls
// back to normal rehash doubling.
const tableMaxPresize = 1 << 20

// tableJumpCap is the capacity at which a growing table trusts its size hint:
// below it the table doubles normally (a selective query that touches a few
// dozen entries must never pay for a graph-sized allocation), at or above it
// the next rehash jumps straight to the hint-derived capacity, skipping the
// large tail copies that otherwise dominate B/op on big APPROX frontiers.
const tableJumpCap = 1 << 10

// sizeForHint returns the power-of-two table size that keeps hint entries
// under 3/4 load, clamped to [visitedMinCap, tableMaxPresize].
func sizeForHint(hint int) int {
	c := visitedMinCap
	for c < tableMaxPresize && 3*c < 4*hint {
		c <<= 1
	}
	return c
}

// grownCap returns the next capacity for a table of size cap with the given
// population hint: double until the table proves real demand, then jump to
// the hint.
func grownCap(cap, hint int) int {
	c := 2 * cap
	if cap >= tableJumpCap {
		if h := sizeForHint(hint); h > c {
			c = h
		}
	}
	return c
}

// NewVisited returns an empty visited set.
func NewVisited() *Visited {
	return &Visited{entries: make([]visEntry, visitedMinCap)}
}

// NewVisitedSized returns an empty visited set that, once grown past
// tableJumpCap, rehashes straight to a capacity fit for about hint entries
// (e.g. data-graph nodes × automaton states for one evaluation) instead of
// doubling step by step. Small populations never pay for the hint.
func NewVisitedSized(hint int) *Visited {
	return &Visited{entries: make([]visEntry, visitedMinCap), hint: hint}
}

// SetShape declares the key space of the current execution — every node
// below nodes, every state below states — which lets a large single-source
// population move to the compact cell form. Call it on an empty set, after
// construction or Reset; Reset clears the declaration.
func (vs *Visited) SetShape(nodes, states int) {
	if nodes <= 0 || states <= 0 || nodes*states > denseMaxCells {
		nodes, states = 0, 0
	}
	vs.nodes, vs.states = nodes, states
}

func pack(v, n graph.NodeID) uint64 {
	return uint64(uint32(v))<<32 | uint64(uint32(n))
}

// hashKey mixes the packed node pair and state (splitmix64-style finaliser).
func hashKey(vn uint64, s int32) uint64 {
	h := vn ^ uint64(uint32(s))*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// cell returns the compact-form index of (v, n, s), or false when the key
// lies outside the declared shape or has another source.
func (vs *Visited) cell(v, n graph.NodeID, s int32) (int, bool) {
	if v != vs.src || n < 0 || int(n) >= vs.nodes || s < 0 || int(s) >= vs.states {
		return 0, false
	}
	return int(n)*vs.states + int(s), true
}

// touch widens the range of cells Reset and undense must visit.
func (vs *Visited) touch(i int) {
	if i < vs.lo {
		vs.lo = i
	}
	if i >= vs.hi {
		vs.hi = i + 1
	}
}

// stored follows a triple newly stored in the table at best distance d
// (visitedBest for a visited one): it records whether the cells could still
// hold every stored triple, and moves the set to its cells when due.
func (vs *Visited) stored(v, n graph.NodeID, s int32, d int32) {
	if vs.used == 1 {
		vs.src = v
	}
	if _, ok := vs.cell(v, n, s); !ok || (d != visitedBest && !fitsCell(d)) {
		vs.noCells = true
	}
	vs.maybeDense()
}

// fitsCell reports whether a pending distance has a cell encoding.
func fitsCell(d int32) bool { return d >= 1 && d <= cellMaxPend }

// maybeDense moves the table's triples into the cells once the population
// reaches denseAfter, when the shape is declared and every stored key and
// distance fits.
func (vs *Visited) maybeDense() {
	if vs.used < denseAfter || vs.nodes == 0 || vs.noCells {
		return
	}
	need := vs.nodes * vs.states
	if cap(vs.cells) < need {
		vs.cells = make([]uint8, need)
	}
	vs.cells = vs.cells[:need]
	vs.lo, vs.hi = need, 0
	for i := range vs.entries {
		e := &vs.entries[i]
		if e.s1 == 0 {
			continue
		}
		c, _ := vs.cell(graph.NodeID(e.vn>>32), graph.NodeID(uint32(e.vn)), e.s1-1)
		if e.best == visitedBest {
			vs.cells[c] = cellVisited
		} else {
			vs.cells[c] = uint8(e.best)
		}
		vs.touch(c)
	}
	clear(vs.entries)
	vs.dense = true
}

// undense moves the cells' triples back into the table for the rest of the
// execution: a key or distance arrived that the cells cannot hold.
func (vs *Visited) undense() {
	vs.dense, vs.noCells = false, true
	c := len(vs.entries)
	for 4*(vs.used+1) > 3*c {
		c = grownCap(c, vs.hint)
	}
	if c != len(vs.entries) {
		vs.entries = make([]visEntry, c)
	}
	mask := uint64(c - 1)
	for i := vs.lo; i < vs.hi; i++ {
		b := vs.cells[i]
		if b == 0 {
			continue
		}
		vs.cells[i] = 0
		vn := pack(vs.src, graph.NodeID(i/vs.states))
		s1 := int32(i%vs.states) + 1
		best := int32(b)
		if b == cellVisited {
			best = visitedBest
		}
		j := hashKey(vn, s1-1) & mask
		for vs.entries[j].s1 != 0 {
			j = (j + 1) & mask
		}
		vs.entries[j] = visEntry{vn: vn, s1: s1, best: best}
	}
	vs.lo, vs.hi = 0, 0
}

// Add marks (v, n, s) visited, reporting whether it was not visited before.
// The paper executes the membership test and the insertion "as a single step"
// (§3.4). A pending entry turns visited: the pop of its cheapest copy is the
// one that counts.
func (vs *Visited) Add(v, n graph.NodeID, s int32) bool {
	if vs.dense {
		i, ok := vs.cell(v, n, s)
		if ok {
			b := vs.cells[i]
			if b == cellVisited {
				return false
			}
			if b == 0 {
				vs.used++
				vs.touch(i)
			}
			vs.cells[i] = cellVisited
			vs.n++
			return true
		}
		vs.undense()
	}
	if 4*(vs.used+1) > 3*len(vs.entries) {
		vs.rehash(grownCap(len(vs.entries), vs.hint))
	}
	vn := pack(v, n)
	mask := uint64(len(vs.entries) - 1)
	i := hashKey(vn, s) & mask
	for {
		e := &vs.entries[i]
		if e.s1 == 0 {
			e.vn, e.s1, e.best = vn, s+1, visitedBest
			vs.n++
			vs.used++
			vs.stored(v, n, s, visitedBest)
			return true
		}
		if e.vn == vn && e.s1 == s+1 {
			if e.best == visitedBest {
				return false
			}
			e.best = visitedBest
			vs.n++
			return true
		}
		i = (i + 1) & mask
	}
}

// Pend records a pending push of (v, n, s) at distance d and reports whether
// the push is worth making: false when the triple is already visited or
// pending at a distance strictly below d. Such a copy can never do work —
// the cheaper copy pops first in every distance-ordered dictionary and marks
// the triple visited, so this one would pop only to be skipped. An equal-
// distance copy is kept (dropping it would reorder ties in the LIFO buckets).
// d must exceed visitedBest; the evaluator pends only parked distances, which
// are positive.
func (vs *Visited) Pend(v, n graph.NodeID, s int32, d int32) bool {
	if vs.dense {
		i, ok := vs.cell(v, n, s)
		if ok && fitsCell(d) {
			b := vs.cells[i]
			if b == 0 {
				vs.used++
				vs.touch(i)
			} else if b == cellVisited || int32(b) < d {
				return false
			}
			vs.cells[i] = uint8(d)
			return true
		}
		vs.undense()
	}
	if 4*(vs.used+1) > 3*len(vs.entries) {
		vs.rehash(grownCap(len(vs.entries), vs.hint))
	}
	vn := pack(v, n)
	mask := uint64(len(vs.entries) - 1)
	i := hashKey(vn, s) & mask
	for {
		e := &vs.entries[i]
		if e.s1 == 0 {
			e.vn, e.s1, e.best = vn, s+1, d
			vs.used++
			vs.stored(v, n, s, d)
			return true
		}
		if e.vn == vn && e.s1 == s+1 {
			if e.best < d {
				return false
			}
			e.best = d
			if !fitsCell(d) {
				vs.noCells = true
			}
			return true
		}
		i = (i + 1) & mask
	}
}

// Reset empties the set for reuse, retaining its capacity: the table and
// cells are cleared in place and the size hint and shape are replaced, so a
// pooled set keeps its grown capacity instead of regrowing from
// visitedMinCap. Membership is the only observable behaviour, so a reset
// set is indistinguishable from a fresh one to the evaluator.
func (vs *Visited) Reset(hint int) {
	if vs.dense {
		if vs.lo < vs.hi {
			clear(vs.cells[vs.lo:vs.hi])
		}
	} else if vs.used > 0 {
		clear(vs.entries)
	}
	vs.n = 0
	vs.used = 0
	vs.hint = hint
	vs.nodes, vs.states = 0, 0
	vs.noCells, vs.dense = false, false
	vs.lo, vs.hi = 0, 0
}

// Contains reports whether (v, n, s) has been processed (a pending triple
// has not).
func (vs *Visited) Contains(v, n graph.NodeID, s int32) bool {
	if vs.dense {
		i, ok := vs.cell(v, n, s)
		return ok && vs.cells[i] == cellVisited
	}
	vn := pack(v, n)
	mask := uint64(len(vs.entries) - 1)
	i := hashKey(vn, s) & mask
	for {
		e := &vs.entries[i]
		if e.s1 == 0 {
			return false
		}
		if e.vn == vn && e.s1 == s+1 {
			return e.best == visitedBest
		}
		i = (i + 1) & mask
	}
}

func (vs *Visited) rehash(newCap int) {
	old := vs.entries
	vs.entries = make([]visEntry, newCap)
	mask := uint64(newCap - 1)
	for _, e := range old {
		if e.s1 == 0 {
			continue
		}
		i := hashKey(e.vn, e.s1-1) & mask
		for vs.entries[i].s1 != 0 {
			i = (i + 1) & mask
		}
		vs.entries[i] = e
	}
}

// Len returns the number of visited triples (pending ones are not counted).
func (vs *Visited) Len() int { return vs.n }

// Answer is one produced conjunct answer (v, n, d).
type Answer struct {
	Src, Dst graph.NodeID
	Dist     int32
}

// U64Set is an open-addressed, linear-probed set of uint64 keys whose bit 63
// is never set — which holds for every key packed from non-negative int32
// pairs — so a word with bit 63 set can mark empty slots. It backs the
// answer-registry pair set here and the projection de-duplication in the
// join layer.
type U64Set struct {
	entries []uint64
	n       int
	hint    int // expected population; 0 = none (double only)
}

// u64Empty marks an empty slot; packed keys never set bit 63.
const u64Empty = uint64(1) << 63

// NewU64Set returns an empty set.
func NewU64Set() *U64Set {
	return NewU64SetSized(0)
}

// NewU64SetSized returns an empty set that, once grown past tableJumpCap,
// rehashes straight to a capacity fit for about hint keys.
func NewU64SetSized(hint int) *U64Set {
	s := &U64Set{entries: make([]uint64, visitedMinCap), hint: hint}
	for i := range s.entries {
		s.entries[i] = u64Empty
	}
	return s
}

// Add inserts k, reporting whether it was newly added.
func (s *U64Set) Add(k uint64) bool {
	if 4*(s.n+1) > 3*len(s.entries) {
		s.rehash(grownCap(len(s.entries), s.hint))
	}
	mask := uint64(len(s.entries) - 1)
	i := hashKey(k, 0) & mask
	for s.entries[i] != u64Empty {
		if s.entries[i] == k {
			return false
		}
		i = (i + 1) & mask
	}
	s.entries[i] = k
	s.n++
	return true
}

// Reset empties the set, retaining capacity and re-arming the size hint.
func (s *U64Set) Reset(hint int) {
	if s.n > 0 {
		for i := range s.entries {
			s.entries[i] = u64Empty
		}
	}
	s.n = 0
	s.hint = hint
}

// Contains reports whether k is in the set.
func (s *U64Set) Contains(k uint64) bool {
	mask := uint64(len(s.entries) - 1)
	i := hashKey(k, 0) & mask
	for s.entries[i] != u64Empty {
		if s.entries[i] == k {
			return true
		}
		i = (i + 1) & mask
	}
	return false
}

// Len returns the number of stored keys.
func (s *U64Set) Len() int { return s.n }

func (s *U64Set) rehash(newCap int) {
	old := s.entries
	s.entries = make([]uint64, newCap)
	for i := range s.entries {
		s.entries[i] = u64Empty
	}
	mask := uint64(newCap - 1)
	for _, k := range old {
		if k == u64Empty {
			continue
		}
		i := hashKey(k, 0) & mask
		for s.entries[i] != u64Empty {
			i = (i + 1) & mask
		}
		s.entries[i] = k
	}
}

// Answers is the registry answers_R: it remembers every (v, n) pair already
// emitted so the same pair is never returned at a higher distance.
type Answers struct {
	pairs *U64Set
	order []Answer
}

// NewAnswers returns an empty registry.
func NewAnswers() *Answers {
	return &Answers{pairs: NewU64Set()}
}

// NewAnswersSized returns an empty registry pre-sized for about hint pairs
// (e.g. the data graph's node count for a single-source conjunct).
func NewAnswersSized(hint int) *Answers {
	return &Answers{pairs: NewU64SetSized(hint)}
}

// Reset empties the registry, retaining the pair-set table and the emission
// slice capacity (Answer holds no pointers, so truncation pins no garbage).
func (a *Answers) Reset(hint int) {
	a.pairs.Reset(hint)
	a.order = a.order[:0]
}

// Has reports whether (v, n) was already emitted at some distance.
func (a *Answers) Has(v, n graph.NodeID) bool {
	return a.pairs.Contains(pack(v, n))
}

// Add records (v, n, d) if the pair is new, reporting whether it was added.
func (a *Answers) Add(v, n graph.NodeID, d int32) bool {
	if !a.pairs.Add(pack(v, n)) {
		return false
	}
	a.order = append(a.order, Answer{Src: v, Dst: n, Dist: d})
	return true
}

// Len returns the number of emitted answers.
func (a *Answers) Len() int { return len(a.order) }

// List returns the answers in emission order. The slice aliases internal
// storage and must not be modified.
func (a *Answers) List() []Answer { return a.order }
