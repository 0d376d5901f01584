package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The names and units
// of endToEndMetrics and perLayerMetrics are the ones BENCHMARK.json
// declares (TestMetricsMatchBenchmarkJSON holds the two in step);
// README.md says what each measures and what it should move.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"convert_s", "s"},
	{"convert_alloc_mb", "MB"},
	{"run_s", "s"},
	{"vs_plain", "ratio"},
	{"run_alloc_mb", "MB"},
	{"modeled_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"retained_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"graph.write_s", "s"},
	{"extsort.sort_s", "s"},
	{"extsort.alloc_mb", "MB"},
	{"dos.convert_write_mb", "MB"},
	{"dos.convert_write_amp", "ratio"},
	{"dos.load_s", "s"},
	{"dos.verify_s", "s"},
	{"dos.index_bytes", "bytes"},
	{"dos.edge_bytes_per_edge", "bytes"},
	{"storage.run_read_mb", "MB"},
	{"storage.run_write_mb", "MB"},
	{"storage.run_read_ops", "count"},
	{"storage.run_seeks", "count"},
	{"storage.edges_read_mb", "MB"},
	{"storage.vstate_read_mb", "MB"},
	{"storage.vstate_write_mb", "MB"},
	{"storage.msgs_read_mb", "MB"},
	{"storage.msgs_write_mb", "MB"},
	{"storage.convert_tmp_read_mb", "MB"},
	{"storage.convert_tmp_write_mb", "MB"},
	{"storage.decode_ns_per_entry", "ns"},
	{"storage.codec_ratio", "ratio"},
	{"core.iterations", "count"},
	{"core.partitions", "count"},
	{"core.updates", "count"},
	{"core.msgs_sent", "count"},
	{"core.msgs_inline", "count"},
	{"core.msgs_spilled", "count"},
	{"core.inline_share", "ratio"},
	{"core.stage_cover", "ratio"},
	{"core.sio_s", "s"},
	{"core.dispatch_s", "s"},
	{"core.worker_s", "s"},
	{"core.drain_s", "s"},
	{"core.decode_s", "s"},
	{"obs.overhead", "ratio"},
	{"sim.io_s", "s"},
	{"sim.compute_s", "s"},
	{"plain.build_s", "s"},
	{"plain.run_s", "s"},
	{"serve.queue_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.job_read_bytes", "bytes"},
	{"serve.metrics_lines", "count"},
	{"serve.retained_kb_per_job", "KB"},
}

// report collects one run's metric values for a fixed metric set.
type report struct {
	defs []metricDef
	vals map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, vals: make(map[string]float64, len(defs))}
}

// set records a metric. Naming a metric outside the report's set is a
// bug in the benchmark, not a measurement outcome.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.vals[name] = v
			return
		}
	}
	panic("perfbench: metric " + name + " is not in this report's set")
}

// complete fails unless every metric of the set was measured with a
// finite value.
func (r *report) complete() error {
	for _, d := range r.defs {
		v, ok := r.vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	return nil
}

func (r *report) values() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		out[d.name] = metricValue{Value: r.vals[d.name], Unit: d.unit}
	}
	return out
}

// print writes the human-readable table: one "name value unit" line
// per metric, in definition order.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-30s %16.6f %s\n", d.name, r.vals[d.name], d.unit)
	}
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 <= p <= 100), interpolating
// linearly between the two closest ranks, so a tail percentile over a
// few dozen samples does not jump from one sample to the next.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// totalAlloc returns the bytes the Go heap has allocated since start.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// settle collects the heap before a timed sample, so the sample does
// not pay for garbage the previous one left.
func settle() { runtime.GC() }

// liveHeap returns the bytes still reachable after a full collection.
// Two cycles also empty the sync.Pool victim caches, so pooled buffers
// do not read as retained.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
