package integration

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/checkpoint"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
)

// Checkpoints written by builds that had the sorted spill must still
// resume on the one arrival-order drain. Such a build stored each spilled
// buffer (one run) of msgs.<p> stably sorted by destination — folded
// per destination when the sort-reduce Combine was on — plus runs.<p>
// run lengths. Sorting keeps every destination's arrival order, so even
// PageRank's float sums must come out bit-identical; folding only drops
// applies, which the min-fold algorithms cannot observe.

// dropCheckpointsAfter deletes every checkpoint past iteration k — the
// on-host state of a run that died during iteration k+1.
func dropCheckpointsAfter(t *testing.T, dir string, k int) {
	t.Helper()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := st.Iterations()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range iters {
		if it > k {
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("ckpt-%010d", it)))
		}
	}
}

// rewriteSorted re-writes the newest checkpoint in dir as a sorted-spill
// build stored it: runs of bufBytes/record records sorted by destination,
// folded with fold when it is set, and runs.<p> sections. It returns the
// message records the checkpoint held and how many the fold removed.
func rewriteSorted(t *testing.T, dir string, bufBytes int, fold func(dst, src []byte)) (records, folded int64) {
	t.Helper()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	rec := 4 + ck.Manifest.MSize
	step := bufBytes / rec * rec
	var secs []checkpoint.SectionData
	for _, sec := range ck.Manifest.Sections {
		data, err := ck.Section(sec.Name)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, checkpoint.SectionData{Name: sec.Name, Data: data})
	}
	for p := 0; p < ck.Manifest.Partitions; p++ {
		var msgs *checkpoint.SectionData
		for i := range secs {
			if secs[i].Name == fmt.Sprintf("msgs.%d", p) {
				msgs = &secs[i]
			}
		}
		if msgs == nil {
			t.Fatalf("checkpoint has no msgs.%d section", p)
		}
		data := msgs.Data
		var out, runs []byte
		for off := 0; off < len(data); off += step {
			recs := make([][]byte, 0, step/rec)
			for r := off; r < min(off+step, len(data)); r += rec {
				recs = append(recs, data[r:r+rec])
			}
			sort.SliceStable(recs, func(i, j int) bool {
				return binary.LittleEndian.Uint32(recs[i]) < binary.LittleEndian.Uint32(recs[j])
			})
			start := len(out)
			for _, r := range recs {
				n := len(out)
				if fold != nil && n > start && binary.LittleEndian.Uint32(out[n-rec:]) == binary.LittleEndian.Uint32(r) {
					fold(out[n-rec+4:], r[4:])
					continue
				}
				out = append(out, r...)
			}
			runs = binary.LittleEndian.AppendUint64(runs, uint64(len(out)-start))
		}
		records += int64(len(data) / rec)
		folded += int64((len(data) - len(out)) / rec)
		msgs.Data = out
		secs = append(secs, checkpoint.SectionData{Name: fmt.Sprintf("runs.%d", p), Data: runs})
	}
	if _, err := st.Write(ck.Manifest, secs); err != nil {
		t.Fatal(err)
	}
	return records, folded
}

func minU32Fold(dst, src []byte) {
	if binary.LittleEndian.Uint32(src) < binary.LittleEndian.Uint32(dst) {
		copy(dst, src)
	}
}

func minF32Fold(dst, src []byte) {
	if math.Float32frombits(binary.LittleEndian.Uint32(src)) < math.Float32frombits(binary.LittleEndian.Uint32(dst)) {
		copy(dst, src)
	}
}

type resumeAlgo struct {
	name string
	fold func(dst, src []byte) // the algorithm's exact min fold; nil for PageRank
	run  func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error)
}

var resumeAlgos = []resumeAlgo{
	{"cc", minU32Fold, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
		res, labels, err := graphzalgo.ConnectedComponents(g, opts)
		return res, bits32(labels), err
	}},
	{"sssp", minF32Fold, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
		res, dists, err := graphzalgo.SSSP(g, opts, 0)
		return res, bitsF32(dists), err
	}},
	{"pagerank", nil, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
		res, ranks, err := graphzalgo.PageRank(g, opts, 20, 0.85)
		return res, bitsF32(ranks), err
	}},
}

// resumeFromSorted runs a checkpointed copy of the algorithm, keeps the
// checkpoints up to half its iterations, re-writes the newest one as a
// sorted-spill build (folding with fold when set) and resumes it. It
// returns the uninterrupted and the resumed outcome and what the rewrite
// saw.
func resumeFromSorted(t *testing.T, a resumeAlgo, newGraph func() *dos.Graph, fold func(dst, src []byte)) (ref, res core.Result, refSt, st []uint64, records, folded int64) {
	t.Helper()
	gRef := newGraph()
	ref, refSt, err := a.run(gRef, tightCodecOpts(gRef, 8))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations < 3 {
		t.Fatalf("%s ran %d iterations; too few to test mid-run resume", a.name, ref.Iterations)
	}
	dir := t.TempDir()
	g := newGraph()
	opts := tightCodecOpts(g, 8)
	opts.Checkpoint = core.CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
	if _, _, err := a.run(g, opts); err != nil {
		t.Fatal(err)
	}
	dropCheckpointsAfter(t, dir, ref.Iterations/2)
	records, folded = rewriteSorted(t, dir, opts.MsgBufferBytes, fold)

	ropts := tightCodecOpts(g, 8)
	ropts.Checkpoint = core.CheckpointOptions{Dir: dir, Every: 1, Resume: true}
	res, st, err = a.run(g, ropts)
	if err != nil {
		t.Fatalf("%s resume: %v", a.name, err)
	}
	return ref, res, refSt, st, records, folded
}

// A mid-run checkpoint re-written with destination-sorted runs resumes
// to the uninterrupted run's exact states and counters, for every
// algorithm — PageRank's order-sensitive float sums included.
func TestSortedCheckpointResumeDifferential(t *testing.T) {
	edges := symmetrize(gen.Zipf(2500, 14000, 0.9, 83))
	for _, a := range resumeAlgos {
		ref, res, refSt, st, records, _ := resumeFromSorted(t, a, func() *dos.Graph { return convertCodec(t, edges, nil) }, nil)
		if records == 0 {
			t.Fatalf("%s: the checkpoint held no spilled messages; nothing was sorted", a.name)
		}
		sameBits(t, a.name+" resumed-vs-uninterrupted", st, refSt)
		if countersOf(res) != countersOf(ref) {
			t.Fatalf("%s: resumed counters %+v, uninterrupted %+v", a.name, countersOf(res), countersOf(ref))
		}
	}
}

// The sort-reduce checkpoints: on a high-fan-in Zipf graph the fold
// really removes records, and the min-fold algorithms still resume to
// byte-identical states, with applied + folded equal to the
// uninterrupted run's applied count and every other counter unchanged.
func TestSortReduceAcceptance(t *testing.T) {
	// A skewed exponent funnels most edges into a few hot destinations.
	edges := gen.Zipf(4000, 60_000, 1.1, 84)
	for _, a := range resumeAlgos {
		if a.fold == nil {
			continue
		}
		ref, res, refSt, st, _, folded := resumeFromSorted(t, a, func() *dos.Graph { return convertCodec(t, edges, nil) }, a.fold)
		if folded == 0 {
			t.Fatalf("%s: the hot-spot checkpoint folded nothing", a.name)
		}
		sameBits(t, a.name+" resumed-vs-uninterrupted", st, refSt)
		got := countersOf(res)
		got.applied += folded
		if got != countersOf(ref) {
			t.Fatalf("%s: resumed counters %+v with %d folded, uninterrupted %+v", a.name, countersOf(res), folded, countersOf(ref))
		}
	}
}
