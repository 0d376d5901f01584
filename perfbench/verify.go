package main

import (
	"fmt"
	"math"
	"time"

	"graphz/internal/algo/plain"
	"graphz/internal/graph"
	"graphz/internal/serve"
)

// The algorithms a workload runs, named as the serving API names them.
const (
	algoPR  = "pagerank"
	algoBFS = "bfs"
	algoCC  = "cc"
)

const (
	prIterations = 10
	prDamping    = 0.85
)

// prTolerance bounds the per-vertex PageRank difference against
// plain.PageRank at the same iteration count: |got - want| <=
// prTolerance * (1 + want). The engine is asynchronous (an update sees
// messages sent earlier in the same iteration) where plain is a
// synchronous power iteration, so after ten iterations the two differ
// by up to about 8% of a vertex's rank on these graphs; a lost or
// doubled share of messages moves whole ranks far past the bound.
// prL1Tolerance bounds the summed absolute difference as a share of the
// summed reference rank.
const (
	prTolerance   = 0.15
	prL1Tolerance = 0.10
)

// plainRef is the in-memory reference for one graph: the adjacency in
// original IDs and, per algorithm, the expected value of every original
// vertex ID.
type plainRef struct {
	adj   *plain.Adjacency
	build time.Duration
	want  map[string][]float64
	runs  map[string][]time.Duration // plain run times, per algorithm
}

func newPlainRef(edges []graph.Edge, tr *tracer, parent int) *plainRef {
	id := tr.begin("plain.BuildAdjacency", parent)
	t0 := time.Now()
	adj := plain.BuildAdjacency(int(graph.MaxID(edges))+1, edges)
	build := time.Since(t0)
	tr.end(id)
	return &plainRef{adj: adj, build: build, want: map[string][]float64{}, runs: map[string][]time.Duration{}}
}

// run times one plain run of algo and keeps its values as the
// reference. BFS roots at source, an original ID.
func (r *plainRef) run(algo string, source graph.VertexID, tr *tracer, parent int) time.Duration {
	id := tr.begin("plain."+algo, parent)
	t0 := time.Now()
	var want []float64
	switch algo {
	case algoPR:
		want = plain.PageRank(r.adj, prIterations, prDamping)
	case algoBFS:
		want = widen(plain.BFS(r.adj, source))
	case algoCC:
		want = widen(plain.ConnectedComponents(r.adj))
	default:
		panic("perfbench: no plain reference for " + algo)
	}
	d := time.Since(t0)
	tr.end(id)
	r.want[algo] = want
	r.runs[algo] = append(r.runs[algo], d)
	return d
}

func widen(in []uint32) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// byOldID pairs engine values (indexed by new ID) with original IDs.
func byOldID(vals []float64, n2o []graph.VertexID) []serve.VertexValue {
	out := make([]serve.VertexValue, len(vals))
	for i, v := range vals {
		out[i] = serve.VertexValue{Vertex: uint32(n2o[i]), Value: v}
	}
	return out
}

// check compares (original ID, value) pairs against the reference:
// BFS distances exactly, CC as a partition (the engine's labels are
// vertex IDs of its own numbering, so only the grouping must agree),
// PageRank within prTolerance per vertex and prL1Tolerance overall.
func (r *plainRef) check(algo string, got []serve.VertexValue) error {
	want, ok := r.want[algo]
	if !ok {
		return fmt.Errorf("no reference for %s", algo)
	}
	var diff, total float64
	label := map[float64]float64{} // engine label -> reference label
	seen := map[float64]float64{}  // reference label -> engine label
	for _, p := range got {
		if int(p.Vertex) >= len(want) {
			return fmt.Errorf("%s: vertex %d outside the reference's %d IDs", algo, p.Vertex, len(want))
		}
		w := want[p.Vertex]
		switch algo {
		case algoBFS:
			if p.Value != w {
				return fmt.Errorf("bfs: vertex %d at distance %v, want %v", p.Vertex, p.Value, w)
			}
		case algoCC:
			if l, ok := label[p.Value]; ok && l != w {
				return fmt.Errorf("cc: vertex %d joins engine component %v, which holds reference components %v and %v", p.Vertex, p.Value, l, w)
			}
			if l, ok := seen[w]; ok && l != p.Value {
				return fmt.Errorf("cc: reference component %v is split across engine labels %v and %v", w, l, p.Value)
			}
			label[p.Value], seen[w] = w, p.Value
		case algoPR:
			d := math.Abs(p.Value - w)
			if d > prTolerance*(1+w) || math.IsNaN(p.Value) {
				return fmt.Errorf("pagerank: vertex %d has rank %v, want %v within %v", p.Vertex, p.Value, w, prTolerance*(1+w))
			}
			diff += d
			total += w
		}
	}
	if algo == algoPR && diff > prL1Tolerance*total {
		return fmt.Errorf("pagerank: summed difference %v exceeds %v of the summed rank %v", diff, prL1Tolerance, total)
	}
	return nil
}
