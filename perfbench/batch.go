package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/extsort"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/serve"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// batchWorkload converts an edge list and runs PageRank on it, the
// paper's batch pipeline: edge list in, DOS conversion, engine run.
type batchWorkload struct {
	graph graphSpec
	// codec selects DOS v2 with that block codec; nil keeps DOS v1 with
	// raw fixed entries, the paper's format.
	codec         storage.Codec
	convertBudget int64
	runBudget     int64
}

// pr-sem: every message applies inline and every iteration decodes
// blocks — Sio, codec decode, the Worker and inline apply do the work;
// spill, drain and vertex-state IO do none. The 8 MiB budgets are the
// CLI defaults; the SEM floor of this graph is about 2 MiB.
var prSem = batchWorkload{
	graph:         graphSpec{scale: 17, edges: 2 << 20},
	codec:         storage.CodecGroupVarint,
	convertBudget: 8 << 20,
	runBudget:     8 << 20,
}

// pr-ooc: the paper's graph-larger-than-memory regime. About 500K
// vertices hold 4 MB of PageRank state, above the 2.5 MiB engine
// budget, so the run partitions and spills; buffer/spill, drain and
// vertex-state load/store do the work, and nothing is decoded.
var prOOC = batchWorkload{
	graph:         graphSpec{scale: 21, edges: 2 << 20},
	convertBudget: 8 << 20,
	runBudget:     5 << 19,
}

const (
	// setupPasses is how many times an untraced run sets up, to report
	// the median set-up time; a traced run, which reports no set-up
	// time, sets up layerSetupPasses times.
	setupPasses      = 5
	layerSetupPasses = 2
	// convertReps is how many timed conversions a run makes.
	convertReps = 3
	// minRuns is the fewest timed engine runs (or untraced/traced run
	// pairs) a run makes, however short --seconds is.
	minRuns = 5
)

func (w batchWorkload) convertConfig() dos.ConvertConfig {
	return dos.ConvertConfig{MemoryBudget: w.convertBudget, Codec: w.codec}
}

// run is one engine run from New to Values: PageRank over g.
func (w batchWorkload) run(g *dos.Graph, clock *sim.Clock, reg *obs.Registry, tr *obs.Tracer) (core.Result, []float32, error) {
	opts := core.DefaultOptions(w.runBudget)
	opts.Clock, opts.Obs, opts.Trace = clock, reg, tr
	return graphzalgo.PageRank(g, opts, prIterations, prDamping)
}

// checkRanks verifies one engine run's ranks against the reference.
func checkRanks(ref *plainRef, g *dos.Graph, ranks []float32, n2o []graph.VertexID) error {
	if len(ranks) != g.NumVertices {
		return fmt.Errorf("pagerank returned %d values for %d vertices", len(ranks), g.NumVertices)
	}
	vals := make([]float64, len(ranks))
	for i, r := range ranks {
		vals[i] = float64(r)
	}
	return ref.check(algoPR, byOldID(vals, n2o))
}

// setupPassesTimed sets up passes times and returns the last set-up
// with every pass's wall time and edge-list write time.
func setupPassesTimed(spec graphSpec, seed uint64, passes int, tr *tracer, parent int) (setup, []float64, []float64, error) {
	var s setup
	var times, writes []float64
	for i := 0; i < passes; i++ {
		id := tr.begin("setup", parent)
		t0 := time.Now()
		var err error
		s, err = newSetup(spec, seed, tr, id)
		times = append(times, seconds(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return setup{}, nil, nil, err
		}
		writes = append(writes, seconds(s.write))
	}
	return s, times, writes, nil
}

// modeledRun converts the raw edge list into prefix "g" and runs once,
// both on sim clocks: the modeled pass. Its graph is the one the timed
// runs use.
func (w batchWorkload) modeledRun(s setup, ref *plainRef, t *tally, tr *tracer, parent int) (conversion, *sim.Clock, *sim.Clock, error) {
	convClock := sim.NewClock()
	conv, err := convert(s.dev, w.convertConfig(), "g", convClock, tr, parent)
	t.record(err)
	if err != nil {
		return conversion{}, nil, nil, err
	}
	n2o, err := conv.g.NewToOld()
	if err != nil {
		return conversion{}, nil, nil, fmt.Errorf("reading new-to-old map: %w", err)
	}
	runClock := sim.NewClock()
	s.dev.SetClock(runClock)
	_, ranks, err := w.run(conv.g, runClock, nil, nil)
	s.dev.SetClock(nil)
	if err == nil {
		err = checkRanks(ref, conv.g, ranks, n2o)
	}
	t.record(err)
	return conv, convClock, runClock, nil
}

func (w batchWorkload) endToEnd(cfg runConfig, t *tally, out *report) error {
	s, setupTimes, _, err := setupPassesTimed(w.graph, cfg.seed, setupPasses, nil, -1)
	if err != nil {
		return err
	}
	out.set("setup_s", median(setupTimes))
	ref := newPlainRef(s.edges, nil, -1)
	ref.run(algoPR, 0, nil, -1)
	baseHeap := liveHeap()

	conv, convClock, runClock, err := w.modeledRun(s, ref, t, nil, -1)
	if err != nil {
		return err
	}
	out.set("modeled_s", seconds(convClock.Total()+runClock.Total()))
	g := conv.g

	// The window spreads its conversions evenly over its length, so a
	// slow stretch of a shared machine does not land on them all; engine
	// runs fill the rest, with a plain run before every other one.
	var convTimes, convAllocs, runTimes, runAllocs, jobTimes, plainTimes []float64
	var jobTotal time.Duration
	converts, runs := 0, 0
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if converts >= convertReps && runs >= minRuns && elapsed >= cfg.seconds {
			break
		}
		if converts < convertReps && elapsed >= time.Duration(converts)*cfg.seconds/convertReps {
			c, err := w.timedConvert(s, g, converts)
			converts++
			t.record(err)
			if err == nil {
				convTimes = append(convTimes, seconds(c.wall))
				convAllocs = append(convAllocs, mb(int64(c.alloc)))
			}
			continue
		}
		if runs%2 == 0 {
			settle()
			plainTimes = append(plainTimes, seconds(ref.run(algoPR, 0, nil, -1)))
		}
		j, err := w.timedJob(g, ref)
		runs++
		t.record(err)
		if err == nil {
			runTimes = append(runTimes, seconds(j.run))
			runAllocs = append(runAllocs, mb(int64(j.alloc)))
			jobTimes = append(jobTimes, ms(j.job))
			jobTotal += j.job
		}
	}
	if len(convTimes) == 0 || len(runTimes) == 0 {
		return fmt.Errorf("every conversion or every run failed: %v", t.firstErr)
	}
	out.set("convert_s", median(convTimes))
	out.set("convert_alloc_mb", median(convAllocs))
	out.set("run_s", median(runTimes))
	out.set("vs_plain", median(runTimes)/median(plainTimes))
	out.set("run_alloc_mb", median(runAllocs))
	out.set("jobs_per_s", float64(len(jobTimes))/jobTotal.Seconds())
	out.set("job_p50_ms", median(jobTimes))
	out.set("job_p95_ms", percentile(jobTimes, 95))
	fmt.Fprintf(os.Stderr, "perfbench: %d conversions, %d runs, %d plain runs in %.1f s\n",
		len(convTimes), len(runTimes), len(plainTimes), time.Since(start).Seconds())
	out.set("retained_mb", mb(int64(liveHeap())-int64(baseHeap)))
	// The baseline heap held the set-up and the reference; keep them
	// live up to the second measurement so only the program's retention
	// differs.
	runtime.KeepAlive(s)
	runtime.KeepAlive(ref)
	runtime.KeepAlive(g)
	return nil
}

// timedConvert converts the raw edge list once more into prefix c<i>,
// checks it has the shape of g, and removes it again.
func (w batchWorkload) timedConvert(s setup, g *dos.Graph, i int) (conversion, error) {
	prefix := fmt.Sprintf("c%d", i)
	settle()
	c, err := convert(s.dev, w.convertConfig(), prefix, nil, nil, -1)
	if err != nil {
		return c, err
	}
	if c.g.NumEdges != g.NumEdges || c.g.NumVertices != g.NumVertices {
		return c, fmt.Errorf("conversion %d has %d vertices and %d edges, the first had %d and %d",
			i, c.g.NumVertices, c.g.NumEdges, g.NumVertices, g.NumEdges)
	}
	return c, removePrefix(s.dev, prefix+".")
}

// batchJob is one timed batch job.
type batchJob struct {
	run   time.Duration // engine run, New to Values
	job   time.Duration // the run plus its ranks keyed by original vertex ID
	alloc uint64        // heap bytes the engine run allocated
}

// timedJob runs one job and checks its answer. A job is what a user of
// the batch pipeline waits for once the graph is converted: the engine
// run plus the ranks keyed by original vertex ID.
func (w batchWorkload) timedJob(g *dos.Graph, ref *plainRef) (batchJob, error) {
	settle()
	a0 := totalAlloc()
	t0 := time.Now()
	_, ranks, err := w.run(g, nil, nil, nil)
	j := batchJob{run: time.Since(t0), alloc: totalAlloc() - a0}
	if err != nil {
		return j, err
	}
	n2o, err := g.NewToOld()
	if err != nil {
		return j, fmt.Errorf("reading new-to-old map: %w", err)
	}
	answer := make([]serve.VertexValue, len(ranks))
	for v, r := range ranks {
		answer[v] = serve.VertexValue{Vertex: uint32(n2o[v]), Value: float64(r)}
	}
	j.job = time.Since(t0)
	if len(answer) != g.NumVertices {
		return j, fmt.Errorf("pagerank returned %d values for %d vertices", len(answer), g.NumVertices)
	}
	return j, ref.check(algoPR, answer)
}

// tracedSample is one traced engine run.
type tracedSample struct {
	wall    time.Duration
	res     core.Result
	io      storage.Stats
	traffic map[string]storage.Stats
}

// tracedRun runs run once with an obs registry and a collecting tracer,
// recording the device traffic it caused and attaching the engine's
// stage spans under an "engine.run" span.
func tracedRun(dev *storage.Device, run func(*obs.Registry, *obs.Tracer) (core.Result, error), tr *tracer, parent int) (tracedSample, error) {
	reg, etr := obs.NewRegistry(), obs.NewCollectingTracer(nil)
	beforeFiles, before := dev.FileStats(), dev.Stats()
	settle()
	id := tr.begin("engine.run", parent)
	t0 := time.Now()
	res, err := run(reg, etr)
	wall := time.Since(t0)
	tr.end(id)
	tr.attachEngine(id, etr.Events())
	return tracedSample{
		wall:    wall,
		res:     res,
		io:      dev.Stats().Sub(before),
		traffic: trafficByClass(beforeFiles, dev.FileStats()),
	}, err
}

func (w batchWorkload) layers(cfg runConfig, t *tally, out *report, tr *tracer) error {
	root := tr.begin("workload", -1)
	defer tr.end(root)
	s, _, writes, err := setupPassesTimed(w.graph, cfg.seed, layerSetupPasses, tr, root)
	if err != nil {
		return err
	}
	out.set("graph.write_s", median(writes))
	ref := newPlainRef(s.edges, tr, root)
	ref.run(algoPR, 0, tr, root)

	if err := sortLayer(s, w.convertBudget, out, tr, root); err != nil {
		return err
	}
	// The modeled pass doubles as the traced conversion: its traffic
	// and clocks are the dos, storage and sim conversion numbers.
	conv, convClock, runClock, err := w.modeledRun(s, ref, t, tr, root)
	if err != nil {
		return err
	}
	g := conv.g
	out.set("sim.io_s", seconds(convClock.TotalIO()+runClock.TotalIO()))
	out.set("sim.compute_s", seconds(convClock.TotalCompute()+runClock.TotalCompute()))
	if err := dosLayer(s, conv, out, tr, root); err != nil {
		return err
	}
	n2o, err := g.NewToOld()
	if err != nil {
		return fmt.Errorf("reading new-to-old map: %w", err)
	}

	start := time.Now()
	var untraced []float64
	var samples []tracedSample
	for i := 0; i < minRuns || time.Since(start) < cfg.seconds; i++ {
		settle()
		id := tr.begin("engine.run.untraced", root)
		t0 := time.Now()
		_, ranks, err := w.run(g, nil, nil, nil)
		wall := time.Since(t0)
		tr.end(id)
		if err == nil {
			err = checkRanks(ref, g, ranks, n2o)
		}
		t.record(err)
		if err == nil {
			untraced = append(untraced, seconds(wall))
		}

		smp, err := tracedRun(s.dev, func(reg *obs.Registry, etr *obs.Tracer) (core.Result, error) {
			res, r, err := w.run(g, nil, reg, etr)
			ranks = r
			return res, err
		}, tr, root)
		if err == nil {
			err = checkRanks(ref, g, ranks, n2o)
		}
		t.record(err)
		if err == nil {
			samples = append(samples, smp)
		}
		settle()
		ref.run(algoPR, 0, tr, root)
	}
	if len(samples) == 0 || len(untraced) == 0 {
		return fmt.Errorf("every engine run failed: %v", t.firstErr)
	}
	setRunLayers(out, samples, median(untraced))
	out.set("plain.build_s", seconds(ref.build))
	out.set("plain.run_s", medianDur(ref.runs[algoPR]))
	for _, name := range []string{"serve.queue_ms", "serve.engine_ms", "serve.overhead_ms", "serve.job_read_bytes", "serve.metrics_lines", "serve.retained_kb_per_job"} {
		out.set(name, 0) // no server on a batch workload
	}
	return nil
}

// edgeKey orders raw edge records by (source, destination).
func edgeKey(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec))<<32 | uint64(binary.LittleEndian.Uint32(rec[4:]))
}

// sortLayer times extsort.Sort over the raw edge list at the
// conversion's memory budget.
func sortLayer(s setup, budget int64, out *report, tr *tracer, parent int) error {
	var times, allocs []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("extsort.Sort", parent)
		a0 := totalAlloc()
		t0 := time.Now()
		err := extsort.Sort(extsort.Config{Dev: s.dev, RecordSize: graph.EdgeBytes, Key: edgeKey, MemoryBudget: budget}, rawFile, "sorted")
		times = append(times, seconds(time.Since(t0)))
		allocs = append(allocs, mb(int64(totalAlloc()-a0)))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("sorting the edge list: %w", err)
		}
		if err := removePrefix(s.dev, "sorted"); err != nil {
			return err
		}
	}
	out.set("extsort.sort_s", median(times))
	out.set("extsort.alloc_mb", median(allocs))
	return nil
}

// dosLayer reports the conversion's device traffic and the converted
// graph's shape, load, verify and block-decode costs.
func dosLayer(s setup, conv conversion, out *report, tr *tracer, parent int) error {
	g := conv.g
	raw := int64(len(s.edges)) * graph.EdgeBytes
	out.set("dos.convert_write_mb", mb(conv.io.WriteBytes))
	out.set("dos.convert_write_amp", float64(conv.io.WriteBytes)/float64(raw))
	out.set("storage.convert_tmp_read_mb", mb(conv.traffic[classConvertTmp].ReadBytes))
	out.set("storage.convert_tmp_write_mb", mb(conv.traffic[classConvertTmp].WriteBytes))
	out.set("dos.index_bytes", float64(g.IndexBytes()))
	size, err := s.dev.Size(g.EdgesFile())
	if err != nil {
		return fmt.Errorf("sizing the edges file: %w", err)
	}
	out.set("dos.edge_bytes_per_edge", float64(size)/float64(g.NumEdges))

	var loads, verifies, decodes []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("dos.Load", parent)
		t0 := time.Now()
		lg, err := dos.Load(s.dev, g.Prefix())
		loads = append(loads, seconds(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("loading the converted graph: %w", err)
		}
		id = tr.begin("dos.Verify", parent)
		t0 = time.Now()
		err = dos.Verify(lg)
		verifies = append(verifies, seconds(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("verifying the converted graph: %w", err)
		}
		id = tr.begin("codec.DecodeBlock", parent)
		ns, err := decodeNsPerEntry(g)
		tr.end(id)
		if err != nil {
			return err
		}
		decodes = append(decodes, ns)
	}
	out.set("dos.load_s", median(loads))
	out.set("dos.verify_s", median(verifies))
	out.set("storage.decode_ns_per_entry", median(decodes))
	ratio := 0.0
	if !g.BlockLayout().FixedEntries() {
		ratio = float64(g.NumEdges*dos.EntryBytes) / float64(size)
	}
	out.set("storage.codec_ratio", ratio)
	return nil
}

// decodeNsPerEntry times Codec.DecodeBlock over every block of g's
// edges file; 0 for a fixed-entry (v1) file, which has no blocks to
// decode.
func decodeNsPerEntry(g *dos.Graph) (float64, error) {
	bl := g.BlockLayout()
	if bl.FixedEntries() {
		return 0, nil
	}
	data, err := storage.ReadAllFile(g.Device(), g.EdgesFile())
	if err != nil {
		return 0, fmt.Errorf("reading the edges file: %w", err)
	}
	var dst []uint32
	var decoded int64
	t0 := time.Now()
	for b := int64(0); b < bl.NumBlocks(); b++ {
		dst, err = bl.Codec.DecodeBlock(dst[:0], data[bl.BlockOffs[b]:bl.BlockOffs[b+1]])
		if err != nil {
			return 0, fmt.Errorf("decoding block %d: %w", b, err)
		}
		decoded += int64(len(dst))
	}
	d := time.Since(t0)
	if decoded != bl.NumEntries {
		return 0, fmt.Errorf("decoded %d entries, the layout holds %d", decoded, bl.NumEntries)
	}
	return float64(d.Nanoseconds()) / float64(decoded), nil
}

// setRunLayers reports the storage, core and obs metrics of the traced
// engine runs: times as medians over the samples, counts from the last
// sample (they repeat exactly from run to run).
func setRunLayers(out *report, samples []tracedSample, untracedWall float64) {
	last := samples[len(samples)-1]
	med := func(f func(tracedSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	out.set("storage.run_read_mb", mb(last.io.ReadBytes))
	out.set("storage.run_write_mb", mb(last.io.WriteBytes))
	out.set("storage.run_read_ops", float64(last.io.ReadOps))
	out.set("storage.run_seeks", float64(last.io.Seeks))
	out.set("storage.edges_read_mb", mb(last.traffic[classEdges].ReadBytes))
	out.set("storage.vstate_read_mb", mb(last.traffic[classVState].ReadBytes))
	out.set("storage.vstate_write_mb", mb(last.traffic[classVState].WriteBytes))
	out.set("storage.msgs_read_mb", mb(last.traffic[classMsgs].ReadBytes))
	out.set("storage.msgs_write_mb", mb(last.traffic[classMsgs].WriteBytes))

	r := last.res
	out.set("core.iterations", float64(r.Iterations))
	out.set("core.partitions", float64(r.Partitions))
	out.set("core.updates", float64(r.UpdatesRun))
	out.set("core.msgs_sent", float64(r.MessagesSent))
	out.set("core.msgs_inline", float64(r.MessagesInline))
	out.set("core.msgs_spilled", float64(r.MessagesSpilled))
	out.set("core.inline_share", float64(r.MessagesInline)/float64(max(r.MessagesSent, 1)))
	out.set("core.stage_cover", med(func(s tracedSample) float64 { return s.res.Stages.Total().Seconds() / s.wall.Seconds() }))
	out.set("core.sio_s", med(func(s tracedSample) float64 { return s.res.Stages.Sio.Seconds() }))
	out.set("core.dispatch_s", med(func(s tracedSample) float64 { return s.res.Stages.Dispatch.Seconds() }))
	out.set("core.worker_s", med(func(s tracedSample) float64 { return s.res.Stages.Worker.Seconds() }))
	out.set("core.drain_s", med(func(s tracedSample) float64 { return s.res.Stages.Drain.Seconds() }))
	out.set("core.decode_s", med(func(s tracedSample) float64 { return s.res.DecodeTime.Seconds() }))
	out.set("obs.overhead", med(func(s tracedSample) float64 { return s.wall.Seconds() })/untracedWall)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = seconds(d)
	}
	return median(xs)
}
