package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"omega/internal/dstruct"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// QueryAnswer is one row of a CRP query result: node bindings for the head
// variables, at the given total distance (sum of conjunct distances).
type QueryAnswer struct {
	Head  []string
	Nodes []graph.NodeID
	Dist  int32
}

// Binding returns the node bound to head variable name, or InvalidNode.
func (a QueryAnswer) Binding(name string) graph.NodeID {
	for i, h := range a.Head {
		if h == name {
			return a.Nodes[i]
		}
	}
	return graph.InvalidNode
}

// QueryIterator yields query answers in non-decreasing total distance.
type QueryIterator interface {
	Next() (QueryAnswer, bool, error)
}

// OpenQuery initialises evaluation of a CRP query and returns an iterator
// over its answers in non-decreasing total distance (§3). It is a thin
// wrapper over PrepareQuery + Exec — compile and run in one shot, with no
// cancellation and no per-call limits; servers that run a query repeatedly
// should Prepare once and Exec per request instead. The returned iterator is
// always a *Execution, so callers may type-assert for Close.
func OpenQuery(g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options) (QueryIterator, error) {
	p, err := PrepareQuery(g, ont, q, opts)
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background(), ExecOptions{})
}

// rowKey renders a row of node bindings as a "n|n|" string: the map key of
// wide projected rows and of HRJN's join buffers.
func rowKey(nodes []graph.NodeID) string {
	var b strings.Builder
	for _, n := range nodes {
		b.WriteString(strconv.Itoa(int(n)))
		b.WriteByte('|')
	}
	return b.String()
}

// projDedup de-duplicates projected head rows. Rows of width ≤ 2 pack their
// bindings into one word probed in a flat dstruct.U64Set — NodeIDs are
// non-negative int32s, so the packed word never sets bit 63, the set's
// empty-slot marker. Wider heads fall back to a string-keyed map.
type projDedup struct {
	packed *dstruct.U64Set     // nil when width > 2
	wide   map[string]struct{} // nil unless width > 2
}

func newProjDedup(width int) *projDedup {
	if width > 2 {
		return &projDedup{wide: map[string]struct{}{}}
	}
	return &projDedup{packed: dstruct.NewU64Set()}
}

// add records the row, reporting whether it was newly added.
func (d *projDedup) add(nodes []graph.NodeID) bool {
	if d.wide != nil {
		k := rowKey(nodes)
		if _, dup := d.wide[k]; dup {
			return false
		}
		d.wide[k] = struct{}{}
		return true
	}
	var k uint64
	switch len(nodes) {
	case 0: // unreachable through Validate (empty heads are rejected)
		k = 0
	case 1:
		k = uint64(uint32(nodes[0]))
	default:
		k = packPair(nodes[0], nodes[1])
	}
	return d.packed.Add(k)
}

// singleConjunct adapts a conjunct iterator directly (no join machinery), so
// single-conjunct queries — the whole of the paper's performance study —
// stream answers with no buffering. Projections that collapse answers (e.g.
// head (?X) over conjunct (?X,R,?Y)) are de-duplicated, keeping the first
// (minimum-distance) occurrence. dedup may be nil when the underlying
// iterator already guarantees distinct rows (the bulk backend with an
// injective projection).
type singleConjunct struct {
	q       *Query
	it      Iterator
	dedup   *projDedup
	hmap    []uint8 // per head position: 0 = conjunct Src, 1 = Dst (built lazily)
	scratch []graph.NodeID
	chunk   []graph.NodeID // backing store for emitted rows, carved per answer
}

// carve returns a fresh w-wide row slice cut from the chunk, allocating a new
// 64-row chunk when the current one is full: emitted rows escape to the
// caller, so they cannot reuse one buffer, but they can share large ones —
// one allocation per 64 rows instead of one per row. Slices are full-capacity
// bounded, so no append through a returned row can touch its neighbours.
func (s *singleConjunct) carve(w int) []graph.NodeID {
	if len(s.chunk)+w > cap(s.chunk) {
		s.chunk = make([]graph.NodeID, 0, 64*w)
	}
	off := len(s.chunk)
	s.chunk = s.chunk[:off+w]
	return s.chunk[off : off+w : off+w]
}

func (s *singleConjunct) Next() (QueryAnswer, bool, error) {
	if s.hmap == nil {
		// Resolve each head position to a conjunct endpoint once; the
		// per-answer loop is then two indexed stores, not string compares.
		c := s.q.Conjuncts[0]
		hmap := make([]uint8, len(s.q.Head))
		for i, h := range s.q.Head {
			switch {
			case c.Subject.IsVar && c.Subject.Name == h:
				hmap[i] = 0
			case c.Object.IsVar && c.Object.Name == h:
				hmap[i] = 1
			default:
				return QueryAnswer{}, false, fmt.Errorf("core: head variable not bound by conjunct")
			}
		}
		s.hmap = hmap
		s.scratch = make([]graph.NodeID, len(s.q.Head))
	}
	for {
		a, ok, err := s.it.Next()
		if !ok || err != nil {
			return QueryAnswer{}, false, err
		}
		for i, m := range s.hmap {
			if m == 0 {
				s.scratch[i] = a.Src
			} else {
				s.scratch[i] = a.Dst
			}
		}
		if s.dedup != nil && !s.dedup.add(s.scratch) {
			continue
		}
		nodes := s.carve(len(s.scratch))
		copy(nodes, s.scratch)
		return QueryAnswer{Head: s.q.Head, Nodes: nodes, Dist: a.Dist}, true, nil
	}
}

// Stats implements StatsReporter.
func (s *singleConjunct) Stats() Stats { return statsOf(s.it) }

// aggregateStats folds the conjunct iterators' counters into one Stats:
// counter fields sum, VisitedSize and Phases take the per-conjunct maximum
// (following the disjunction driver's convention). This is what lets a server
// log per-request pops/deferred/reinjected for multi-conjunct queries too.
func aggregateStats(its []Iterator) Stats {
	var s Stats
	for _, it := range its {
		cs := statsOf(it)
		s.TuplesAdded += cs.TuplesAdded
		s.TuplesPopped += cs.TuplesPopped
		s.NeighborCalls += cs.NeighborCalls
		s.CacheHits += cs.CacheHits
		s.Deferred += cs.Deferred
		s.Reinjected += cs.Reinjected
		s.SpillEscalations += cs.SpillEscalations
		s.SpillIONanos += cs.SpillIONanos
		s.SpillIOBytes += cs.SpillIOBytes
		s.Shards += cs.Shards
		s.MergeWaitNanos += cs.MergeWaitNanos
		if cs.VisitedSize > s.VisitedSize {
			s.VisitedSize = cs.VisitedSize
		}
		if cs.Phases > s.Phases {
			s.Phases = cs.Phases
		}
		// Every evaluator of one execution reports the same shared gauge's
		// peak, so max (not sum) is the execution-wide figure.
		if cs.MemPeakBytes > s.MemPeakBytes {
			s.MemPeakBytes = cs.MemPeakBytes
		}
		if s.Backend == "" {
			s.Backend = cs.Backend
		} else if cs.Backend != "" && cs.Backend != s.Backend {
			s.Backend = "mixed"
		}
	}
	return s
}
