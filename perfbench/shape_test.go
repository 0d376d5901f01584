package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"graphz/internal/core"
	"graphz/internal/obs"
	"graphz/internal/serve"
)

// shapeSeeds are the seed the README's examples use and a second one.
var shapeSeeds = []uint64{7, 8}

// TestWorkloadShape pins what each workload exercises, so a code change
// that silently moves a workload off its layers fails here instead of
// quietly changing what the benchmark measures.
func TestWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and converts the full-size workload graphs")
	}
	for _, seed := range shapeSeeds {
		t.Run(fmt.Sprintf("seed%d/pr-sem", seed), func(t *testing.T) {
			r := batchShape(t, prSem, seed)
			if !r.SemiExternal || r.MessagesSpilled != 0 || r.CodecBytesEncoded == 0 {
				t.Fatalf("want SEM with no spills and codec bytes decoded; got sem=%v spilled=%d codec bytes=%d",
					r.SemiExternal, r.MessagesSpilled, r.CodecBytesEncoded)
			}
		})
		t.Run(fmt.Sprintf("seed%d/pr-ooc", seed), func(t *testing.T) {
			r := batchShape(t, prOOC, seed)
			if r.SemiExternal || r.Partitions < 4 || r.MessagesSpilled == 0 || r.CodecBytesEncoded != 0 {
				t.Fatalf("want >= 4 partitions, spilled messages and no codec bytes; got sem=%v partitions=%d spilled=%d codec bytes=%d",
					r.SemiExternal, r.Partitions, r.MessagesSpilled, r.CodecBytesEncoded)
			}
		})
		t.Run(fmt.Sprintf("seed%d/serve-mix", seed), func(t *testing.T) {
			var tl tally
			e, err := newServeEnv(seed, &tl, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.job(algoPR, nil, -1); err != nil {
				t.Fatalf("warm-up job: %v", err)
			}
			edges := e.conv.g.EdgesFile()
			before := e.s.dev.FileStats()[edges]
			for _, a := range mix {
				o, err := e.job(a, nil, -1)
				if err != nil {
					t.Fatal(err)
				}
				if o.status.CodecBytesEncoded != 0 {
					t.Errorf("%s job decoded %d codec bytes after warm-up", a, o.status.CodecBytesEncoded)
				}
			}
			if read := e.s.dev.FileStats()[edges].Sub(before).ReadBytes; read != 0 {
				t.Fatalf("jobs after warm-up read %d bytes of %s, want 0", read, edges)
			}
		})
	}
}

// batchShape sets up and converts w's graph, then runs it once with obs
// on (the codec counters are populated only then).
func batchShape(t *testing.T, w batchWorkload, seed uint64) core.Result {
	t.Helper()
	s, err := newSetup(w.graph, seed, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := convert(s.dev, w.convertConfig(), "g", nil, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.run(conv.g, nil, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricsMatchBenchmarkJSON holds BENCHMARK.json and the metric
// sets the program reports in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEndMetrics)
	same("per_layer", decl.PerLayer, perLayerMetrics)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, decl.Workloads[i].Name, w.name)
		}
	}
}

// TestCheckRejectsWrongResults feeds the reference check results that
// are wrong in the way each algorithm's comparison must catch.
func TestCheckRejectsWrongResults(t *testing.T) {
	ref := &plainRef{want: map[string][]float64{
		algoBFS: {0, 1, 2, 4294967295},
		algoCC:  {0, 0, 2, 2},
		algoPR:  {1, 2, 3, 0.15},
	}}
	vv := func(vals ...float64) []serve.VertexValue {
		out := make([]serve.VertexValue, len(vals))
		for i, v := range vals {
			out[i] = serve.VertexValue{Vertex: uint32(i), Value: v}
		}
		return out
	}
	for _, c := range []struct {
		algo string
		got  []serve.VertexValue
		ok   bool
	}{
		{algoBFS, vv(0, 1, 2, 4294967295), true},
		{algoBFS, vv(0, 1, 3, 4294967295), false},
		{algoCC, vv(7, 7, 3, 3), true},  // relabelled components
		{algoCC, vv(7, 7, 7, 7), false}, // two components merged
		{algoCC, vv(7, 5, 3, 3), false}, // one component split
		{algoPR, vv(1.05, 2.1, 2.9, 0.15), true},
		{algoPR, vv(1, 2, 3, 0.6), false},       // one vertex past the per-vertex bound
		{algoPR, vv(1.2, 2.3, 3.4, 0.2), false}, // each within, the sum past the L1 bound
	} {
		if err := ref.check(c.algo, c.got); (err == nil) != c.ok {
			t.Errorf("%s %v: check returned %v, want ok=%v", c.algo, c.got, err, c.ok)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "run", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}}
	self := tr.selfTimes()
	if self["run"] != 100-40-10 {
		t.Fatalf("run self time = %d, want 50", self["run"])
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {95, 4.8}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
