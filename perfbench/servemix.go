package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphz/internal/bench"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/serve"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// serve-mix: a resident graph answering a closed-loop job mix. Convert
// and the first decode are paid once, in set-up; after that jobs read
// no edge bytes, and the per-job fixed costs of engines, admission,
// always-on obs and retention do the work.
//
// The graph is 512K R-MAT edges at scale 16 stored in both directions
// (about 1M edges), so CC finds weakly connected components whose
// partition the check can compare. The server runs graphz-serve's
// defaults: varint codec, a 256 MiB server budget, the default job
// budget (an eighth of it) and a conversion budget of a quarter.
var serveGraph = graphSpec{scale: 16, edges: 1 << 19, symmetric: true}

const (
	serveBudget = 256 << 20
	jobBudget   = serveBudget / 8
	graphName   = "web"
	// clients is the closed loop's client count: nproc on the 2-core
	// machines this benchmark targets.
	clients = 2
	// minJobs is the fewest jobs the untraced closed loop runs, so
	// job_p95_ms has at least ten samples beyond it; the traced loop,
	// which reports medians only, runs at least minLayerJobs.
	minJobs      = 200
	minLayerJobs = 50
	// fullChecks: the full result vectors of the first jobs and every
	// fullCheckEvery-th job are checked against the reference; every
	// job's top-5 is.
	fullChecks     = 6
	fullCheckEvery = 25
	// plainRounds is how many times each plain algorithm is timed
	// before the closed loop, and again after it.
	plainRounds = 15
)

// mix is the job mix. Each client runs it in rounds, each round in an
// order shuffled by a generator seeded with the run's seed and the
// client's index. With one fixed order the two clients kept one phase
// for a whole run, so how often two PageRank jobs overlapped, and with
// it the share of fast PageRank jobs, changed from run to run.
//
// PageRank runs a fixed 10 iterations, while BFS and CC run to
// quiescence in 2 to 4 iterations depending on the seed's graph. With
// PageRank at three fifths of the jobs, the median and the 95th
// percentile fall inside PageRank's latencies, so they do not jump with
// the iteration count of BFS or CC.
var mix = []string{algoBFS, algoPR, algoCC, algoPR, algoPR}

// mixAlgos lists each algorithm of the mix once.
var mixAlgos = []string{algoBFS, algoCC, algoPR}

// serveEnv is one set-up resident server.
type serveEnv struct {
	s    setup
	conv conversion
	srv  *serve.Server
	h    http.Handler
	n2o  []graph.VertexID
}

// newServeEnv sets up a server the way graphz-serve -gen does: write the
// edge list, convert it with the raw input removed and register the
// graph. The conversion is recorded in t. The caller's warm-up job then
// decodes the shared adjacency.
func newServeEnv(seed uint64, t *tally, tr *tracer, parent int) (*serveEnv, error) {
	s, err := newSetup(serveGraph, seed, tr, parent)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{MemoryBudget: serveBudget})
	if err != nil {
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	conv, err := convert(s.dev, serveConvertConfig(), graphName, nil, tr, parent)
	t.record(err)
	if err != nil {
		return nil, err
	}
	id := tr.begin("serve.RegisterGraph", parent)
	err = srv.RegisterGraph(graphName, conv.g)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("registering the graph: %w", err)
	}
	n2o, err := conv.g.NewToOld()
	if err != nil {
		return nil, fmt.Errorf("reading new-to-old map: %w", err)
	}
	return &serveEnv{s: s, conv: conv, srv: srv, h: srv.Handler(), n2o: n2o}, nil
}

func serveConvertConfig() dos.ConvertConfig {
	return dos.ConvertConfig{MemoryBudget: serveBudget / 4, Codec: storage.CodecVarint, RemoveInput: true}
}

// newServeRef builds the plain reference for every algorithm of the mix;
// BFS roots where the server's default does, at degree-ordered ID 0.
func newServeRef(e *serveEnv, tr *tracer, parent int) *plainRef {
	r := newPlainRef(e.s.edges, tr, parent)
	for _, a := range mixAlgos {
		r.run(a, e.n2o[0], tr, parent)
	}
	return r
}

// jobOutcome is one served job as its client saw it.
type jobOutcome struct {
	algo    string
	latency time.Duration // submit to top-5 result fetched
	status  serve.JobStatus
	top     []serve.VertexValue
}

// call sends one in-process request through the server's HTTP handler.
// It fails on a non-2xx answer, decodes a JSON answer into v when v is
// non-nil, and returns the body.
func (e *serveEnv) call(method, path string, body []byte, v any) ([]byte, error) {
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			return nil, fmt.Errorf("%s %s: decoding the answer: %w", method, path, err)
		}
	}
	return rec.Body.Bytes(), nil
}

// job submits one job, waits for it and fetches its top-5 result.
func (e *serveEnv) job(algo string, tr *tracer, parent int) (jobOutcome, error) {
	jid := tr.begin("job."+algo, parent)
	defer tr.end(jid)
	o := jobOutcome{algo: algo}
	t0 := time.Now()
	id := tr.begin("serve.submit", jid)
	_, err := e.call(http.MethodPost, "/jobs", []byte(`{"graph":"`+graphName+`","algo":"`+algo+`"}`), &o.status)
	tr.end(id)
	if err != nil {
		return o, err
	}
	id = tr.begin("serve.wait", jid)
	o.status, err = e.srv.Wait(o.status.ID)
	tr.end(id)
	if err != nil {
		return o, fmt.Errorf("waiting for %s: %w", o.status.ID, err)
	}
	if o.status.State != serve.StateDone {
		return o, fmt.Errorf("job %s (%s) ended %s: %s", o.status.ID, algo, o.status.State, o.status.Error)
	}
	id = tr.begin("serve.result", jid)
	var res serve.JobResult
	_, err = e.call(http.MethodGet, "/jobs/"+o.status.ID+"/result?top=5", nil, &res)
	tr.end(id)
	o.latency = time.Since(t0)
	o.top = res.Top
	if err == nil && len(res.Top) != 5 {
		err = fmt.Errorf("job %s: top-5 result has %d entries", o.status.ID, len(res.Top))
	}
	return o, err
}

// checkJob verifies a job's top-5 against the reference and, when full
// is set, its whole result vector.
func (e *serveEnv) checkJob(ref *plainRef, o jobOutcome, full bool) error {
	if err := ref.check(o.algo, o.top); err != nil {
		return fmt.Errorf("job %s top-5: %w", o.status.ID, err)
	}
	if !full {
		return nil
	}
	res, err := e.srv.Result(o.status.ID, 0, nil, true)
	if err != nil {
		return fmt.Errorf("job %s: %w", o.status.ID, err)
	}
	if len(res.All) != e.conv.g.NumVertices {
		return fmt.Errorf("job %s returned %d values for %d vertices", o.status.ID, len(res.All), e.conv.g.NumVertices)
	}
	if err := ref.check(o.algo, res.All); err != nil {
		return fmt.Errorf("job %s: %w", o.status.ID, err)
	}
	return nil
}

// closedLoop runs the job mix from clients closed-loop clients until d
// has passed and at least atLeast jobs finished. Client c shuffles each
// round of the mix with a generator seeded from seed and c. Failed jobs
// are counted in t; the outcomes of successful ones are returned with
// the loop's wall time.
func (e *serveEnv) closedLoop(d time.Duration, atLeast int64, seed uint64, ref *plainRef, t *tally, tr *tracer, parent int) ([]jobOutcome, time.Duration) {
	var (
		mu       sync.Mutex
		outcomes []jobOutcome
		errs     []error
		started  atomic.Int64
		wg       sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			round := append([]string(nil), mix...)
			for i := 0; ; i++ {
				if n := started.Add(1); n > atLeast && time.Since(t0) >= d {
					return
				}
				if i%len(round) == 0 {
					rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
				}
				o, err := e.job(round[i%len(round)], tr, parent)
				mu.Lock()
				if err == nil {
					outcomes = append(outcomes, o)
				}
				errs = append(errs, err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			t.record(err)
		}
	}
	for i, o := range outcomes {
		t.record(e.checkJob(ref, o, i < fullChecks || i%fullCheckEvery == 0))
	}
	return outcomes, elapsed
}

// modeledMix converts the edge list on a clocked device and runs each
// algorithm of the mix once over a shared resident graph with a served
// job's options, every run on its own sim clock. It returns the
// conversion's clock and the runs' clocks.
func modeledMix(edges []graph.Edge, ref *plainRef, t *tally) (*sim.Clock, []*sim.Clock, error) {
	dev := storage.NewDevice(storage.SSD, storage.Options{})
	if err := graph.WriteEdges(dev, rawFile, edges); err != nil {
		return nil, nil, fmt.Errorf("writing edge list: %w", err)
	}
	convClock := sim.NewClock()
	conv, err := convert(dev, serveConvertConfig(), graphName, convClock, nil, -1)
	t.record(err)
	if err != nil {
		return nil, nil, err
	}
	sg := core.NewSharedGraph(conv.g)
	n2o, err := conv.g.NewToOld()
	if err != nil {
		return nil, nil, fmt.Errorf("reading new-to-old map: %w", err)
	}
	var clocks []*sim.Clock
	for _, a := range mix {
		c := sim.NewClock()
		dev.SetClock(c)
		vals, _, err := mixRun(sg, a, c, nil, nil)
		dev.SetClock(nil)
		if err == nil {
			err = ref.check(a, byOldID(vals, n2o))
		}
		t.record(err)
		clocks = append(clocks, c)
	}
	return convClock, clocks, nil
}

// mixRun runs one algorithm of the mix directly on the engine, through
// the dispatch the server's jobs use, with a served job's options.
func mixRun(sg *core.SharedGraph, algo string, clock *sim.Clock, reg *obs.Registry, tr *obs.Tracer) ([]float64, core.Result, error) {
	a, err := bench.ParseAlgo(algo)
	if err != nil {
		return nil, core.Result{}, err
	}
	opts := core.DefaultOptions(jobBudget)
	opts.SharedAdjacency = sg.Adjacency()
	opts.Clock, opts.Obs, opts.Trace = clock, reg, tr
	res, vals, err := bench.ExecAlgo(a, sg.View(), opts, bench.AlgoParams{})
	return vals, res, err
}

// serveSetups is a serve-mix run's set-up: servers set up and timed,
// the last one kept with its plain reference.
type serveSetups struct {
	e          *serveEnv
	ref        *plainRef
	setupTimes []float64 // per pass: write, convert, register, warm-up
	writeTimes []float64
	convTimes  []float64
	convAllocs []float64
	warmHeap   uint64 // live heap once the kept server is warm
}

func newServeSetups(cfg runConfig, passes int, t *tally, tr *tracer, parent int) (serveSetups, error) {
	var ss serveSetups
	var warm jobOutcome
	for i := 0; i < passes; i++ {
		id := tr.begin("setup", parent)
		t0 := time.Now()
		e, err := newServeEnv(cfg.seed, t, tr, id)
		if err == nil {
			warm, err = e.job(algoPR, tr, id)
			if err != nil {
				t.record(err)
				err = fmt.Errorf("warm-up job: %w", err)
			}
		}
		ss.setupTimes = append(ss.setupTimes, seconds(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return ss, err
		}
		ss.e = e
		ss.writeTimes = append(ss.writeTimes, seconds(e.s.write))
		ss.convTimes = append(ss.convTimes, seconds(e.conv.wall))
		ss.convAllocs = append(ss.convAllocs, mb(int64(e.conv.alloc)))
	}
	ss.ref = newServeRef(ss.e, tr, parent)
	timePlain(ss.ref, ss.e, plainRounds-1, tr, parent)
	t.record(ss.e.checkJob(ss.ref, warm, true))
	ss.warmHeap = liveHeap()
	return ss, nil
}

// timePlain times every plain algorithm of the mix n more times.
func timePlain(ref *plainRef, e *serveEnv, n int, tr *tracer, parent int) {
	for i := 0; i < n; i++ {
		for _, a := range mixAlgos {
			settle()
			ref.run(a, e.n2o[0], tr, parent)
		}
	}
}

func serveMixEndToEnd(cfg runConfig, t *tally, out *report) error {
	ss, err := newServeSetups(cfg, setupPasses, t, nil, -1)
	if err != nil {
		return err
	}
	e, ref := ss.e, ss.ref
	out.set("setup_s", median(ss.setupTimes))
	out.set("convert_s", median(ss.convTimes))
	out.set("convert_alloc_mb", median(ss.convAllocs))

	convClock, runClocks, err := modeledMix(e.s.edges, ref, t)
	if err != nil {
		return err
	}
	modeled := convClock.Total()
	for _, c := range runClocks {
		modeled += c.Total()
	}
	out.set("modeled_s", seconds(modeled))

	a0 := totalAlloc()
	outcomes, elapsed := e.closedLoop(cfg.seconds, minJobs, cfg.seed, ref, t, nil, -1)
	alloc := totalAlloc() - a0
	if len(outcomes) == 0 {
		return fmt.Errorf("every job failed: %v", t.firstErr)
	}
	// Plain is timed before and after the loop, so its median spans the
	// same stretch of machine time as the jobs it is compared with.
	timePlain(ref, e, plainRounds, nil, -1)
	var latencies []float64
	engineBy := map[string][]float64{}
	for _, o := range outcomes {
		latencies = append(latencies, ms(o.latency))
		engineBy[o.algo] = append(engineBy[o.algo], seconds(o.status.WallTime))
	}
	var engineMix, plainMix float64
	for _, a := range mix {
		engineMix += median(engineBy[a])
		plainMix += medianDur(ref.runs[a])
	}
	jobs := float64(len(outcomes))
	// run_s is a job's engine time weighted by the mix, from the median of
	// each algorithm: a median over all jobs would sit in PageRank's low
	// tail, just above the BFS and CC jobs.
	out.set("run_s", engineMix/float64(len(mix)))
	out.set("vs_plain", engineMix/plainMix)
	out.set("run_alloc_mb", mb(int64(alloc))/jobs)
	out.set("jobs_per_s", jobs/elapsed.Seconds())
	out.set("job_p50_ms", median(latencies))
	out.set("job_p95_ms", percentile(latencies, 95))
	// Retention grows with every job served; scaling it to minJobs keeps
	// it from reading as a regression when throughput rises.
	retained := int64(liveHeap()) - int64(ss.warmHeap)
	out.set("retained_mb", mb(retained)*minJobs/jobs)
	runtime.KeepAlive(e)
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs in %.1f s\n", len(outcomes), elapsed.Seconds())
	for _, a := range mixAlgos {
		var l, q []float64
		for _, o := range outcomes {
			if o.algo == a {
				l = append(l, ms(o.latency))
				q = append(q, ms(o.status.WallTime))
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %-8s %3d jobs, latency p50 %.1f ms p95 %.1f ms, engine p50 %.1f ms\n", a, len(l), median(l), percentile(l, 95), median(q))
	}
	return nil
}

// addSample folds b into a: a mix round's traced runs summed into one
// sample.
func addSample(a, b tracedSample) tracedSample {
	a.wall += b.wall
	a.res.Iterations += b.res.Iterations
	a.res.Partitions += b.res.Partitions
	a.res.UpdatesRun += b.res.UpdatesRun
	a.res.MessagesSent += b.res.MessagesSent
	a.res.MessagesInline += b.res.MessagesInline
	a.res.MessagesSpilled += b.res.MessagesSpilled
	a.res.Stages.Add(b.res.Stages)
	a.res.DecodeTime += b.res.DecodeTime
	a.io = a.io.Add(b.io)
	traffic := make(map[string]storage.Stats)
	for c, s := range a.traffic {
		traffic[c] = s
	}
	for c, s := range b.traffic {
		traffic[c] = traffic[c].Add(s)
	}
	a.traffic = traffic
	return a
}

func serveMixLayers(cfg runConfig, t *tally, out *report, tr *tracer) error {
	root := tr.begin("workload", -1)
	defer tr.end(root)
	ss, err := newServeSetups(cfg, layerSetupPasses, t, tr, root)
	if err != nil {
		return err
	}
	e, ref := ss.e, ss.ref
	dev := e.s.dev
	out.set("graph.write_s", median(ss.writeTimes))

	// Conversion removed the raw edge list; sort a fresh copy of it.
	if err := graph.WriteEdges(dev, rawFile, e.s.edges); err != nil {
		return fmt.Errorf("writing edge list: %w", err)
	}
	if err := sortLayer(e.s, serveBudget/4, out, tr, root); err != nil {
		return err
	}
	if err := dev.Remove(rawFile); err != nil {
		return fmt.Errorf("removing edge list: %w", err)
	}
	if err := dosLayer(e.s, e.conv, out, tr, root); err != nil {
		return err
	}
	convClock, runClocks, err := modeledMix(e.s.edges, ref, t)
	if err != nil {
		return err
	}
	simIO, simCompute := convClock.TotalIO(), convClock.TotalCompute()
	for _, c := range runClocks {
		simIO += c.TotalIO()
		simCompute += c.TotalCompute()
	}
	out.set("sim.io_s", seconds(simIO))
	out.set("sim.compute_s", seconds(simCompute))

	// The served half of the window: the traced closed loop.
	before := dev.Stats()
	heap0 := liveHeap()
	outcomes, _ := e.closedLoop(cfg.seconds/2, minLayerJobs, cfg.seed, ref, t, tr, root)
	if len(outcomes) == 0 {
		return fmt.Errorf("every job failed: %v", t.firstErr)
	}
	jobs := float64(len(outcomes))
	var queue, engine, overhead []float64
	for _, o := range outcomes {
		q := o.status.Started.Sub(o.status.Submitted)
		queue = append(queue, ms(q))
		engine = append(engine, ms(o.status.WallTime))
		overhead = append(overhead, ms(o.latency-q-o.status.WallTime))
	}
	out.set("serve.queue_ms", median(queue))
	out.set("serve.engine_ms", median(engine))
	out.set("serve.overhead_ms", median(overhead))
	out.set("serve.job_read_bytes", float64(dev.Stats().Sub(before).ReadBytes)/jobs)
	metrics, err := e.call(http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return err
	}
	out.set("serve.metrics_lines", float64(bytes.Count(metrics, []byte("\n"))))
	out.set("serve.retained_kb_per_job", float64(int64(liveHeap())-int64(heap0))/1024/jobs)

	// The direct half: rounds of the mix run straight on the engine with
	// a served job's options, untraced then traced, for the core, storage
	// and obs numbers.
	sg := core.NewSharedGraph(e.conv.g)
	start := time.Now()
	var untraced []float64
	var samples []tracedSample
	for i := 0; i < minRuns || time.Since(start) < cfg.seconds/2; i++ {
		var wall time.Duration
		var round tracedSample
		ok := true
		for _, a := range mix {
			settle()
			id := tr.begin("engine.run.untraced", root)
			t0 := time.Now()
			vals, _, err := mixRun(sg, a, nil, nil, nil)
			wall += time.Since(t0)
			tr.end(id)
			if err == nil {
				err = ref.check(a, byOldID(vals, e.n2o))
			}
			t.record(err)

			smp, err := tracedRun(dev, func(reg *obs.Registry, etr *obs.Tracer) (core.Result, error) {
				v, res, err := mixRun(sg, a, nil, reg, etr)
				vals = v
				return res, err
			}, tr, root)
			if err == nil {
				err = ref.check(a, byOldID(vals, e.n2o))
			}
			t.record(err)
			ok = ok && err == nil
			round = addSample(round, smp)
			ref.run(a, e.n2o[0], tr, root)
		}
		untraced = append(untraced, seconds(wall))
		if ok {
			samples = append(samples, round)
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("every engine run failed: %v", t.firstErr)
	}
	setRunLayers(out, samples, median(untraced))
	out.set("plain.build_s", seconds(ref.build))
	var plainMix float64
	for _, a := range mix {
		plainMix += medianDur(ref.runs[a])
	}
	out.set("plain.run_s", plainMix)
	runtime.KeepAlive(e)
	return nil
}
