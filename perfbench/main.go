// Command perfbench is the repository's end-to-end and per-layer
// benchmark: edge list in, DOS conversion, engine run to a verified
// result, and a resident server answering a job mix. README.md documents
// every workload and metric.
//
// Usage (from the repository root; run.sh builds and launches it):
//
//	perfbench --workload pr-sem --seed 7 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a traced run. The last line
// of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark input set. endToEnd and layers each fill
// the metric set they own; both report failed operations through tally
// rather than aborting, and return an error only when the run cannot
// go on (a setup step failed).
type workload struct {
	name     string
	endToEnd func(cfg runConfig, t *tally, out *report) error
	layers   func(cfg runConfig, t *tally, out *report, tr *tracer) error
}

type runConfig struct {
	seed    uint64
	seconds time.Duration
}

var workloads = []workload{
	{name: "pr-sem", endToEnd: prSem.endToEnd, layers: prSem.layers},
	{name: "pr-ooc", endToEnd: prOOC.endToEnd, layers: prOOC.layers},
	{name: "serve-mix", endToEnd: serveMixEndToEnd, layers: serveMixLayers},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally counts attempted and failed operations. An operation is an
// engine run, a conversion, or a served job; it fails when it returns
// an error, a served request answers non-2xx, a job does not finish
// done, or its values differ from the in-memory reference.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: pr-sem, pr-ooc or serve-mix")
		seed    = flag.Uint64("seed", 7, "input generator seed")
		seconds = flag.Float64("seconds", 25, "measured window per run, in seconds")
		traced  = flag.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (pr-sem, pr-ooc, serve-mix), --seconds > 0 and --trace 0|1; got %q %v %d\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}

	var t tally
	var out *report
	var err error
	if *traced == 0 {
		out = newReport(endToEndMetrics)
		err = w.endToEnd(cfg, &t, out)
	} else {
		out = newReport(perLayerMetrics)
		tr := newTracer()
		err = w.layers(cfg, &t, out, tr)
		if err == nil {
			tr.printSelfTimes(os.Stderr)
			err = writeSpans(tr, w.name, *seed)
		}
	}
	if err == nil {
		err = out.complete()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if t.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}

	out.print(os.Stdout)
	fmt.Printf("error_rate %.6f ratio (%d failed of %d attempted)\n", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	line := resultLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out.values()}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// writeSpans writes a traced run's spans to spans/<workload>-seed<N>.json
// beside the benchmark binary, which run.sh builds inside the checkout.
func writeSpans(tr *tracer, workload string, seed uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	return tr.writeFile(filepath.Join(filepath.Dir(exe), "spans", fmt.Sprintf("%s-seed%d.json", workload, seed)))
}
