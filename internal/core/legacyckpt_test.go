package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
)

// Checkpoints from builds that had the sorted spill store msgs.<p> in a
// different shape: every spilled buffer (one run) stably sorted by
// destination and, with the Combine fold on, adjacent equal destinations
// folded into one record, plus a runs.<p> section of 8-byte LE run
// lengths. The one drain replays msgs.<p> in file order and never reads
// runs.<p>. That is exact: a stable per-run sort keeps each
// destination's arrival order (all Apply can observe), and a fold only
// hands Apply fewer, already-combined messages. These tests write such
// checkpoints and resume them.

// rewriteCheckpoint re-writes checkpoint k under dir through
// checkpoint.Store.Write in that shape, after dropping every later
// checkpoint (the on-host state of a run that died during iteration
// k+1). runBytes is the length of one full spill buffer, 0 for one run
// covering the file; rewriteRun turns one arrival-order run into its
// stored form. It returns the message records the checkpoint held and
// how many of them the rewrite folded away.
func rewriteCheckpoint(t *testing.T, dir string, k, runBytes int, rewriteRun func([]byte) []byte) (records, folded int64) {
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
			os.RemoveAll(filepath.Join(dir, ckptDirName(it)))
		}
	}
	ck, err := st.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	rec := 4 + ck.Manifest.MSize
	index := map[string]int{}
	var secs []checkpoint.SectionData
	for _, sec := range ck.Manifest.Sections {
		data, err := ck.Section(sec.Name)
		if err != nil {
			t.Fatal(err)
		}
		index[sec.Name] = len(secs)
		secs = append(secs, checkpoint.SectionData{Name: sec.Name, Data: data})
	}
	for p := 0; p < ck.Manifest.Partitions; p++ {
		i, ok := index[msgSectionName(p)]
		if !ok {
			t.Fatalf("checkpoint %d has no %s section", k, msgSectionName(p))
		}
		data := secs[i].Data
		step := runBytes
		if step <= 0 {
			step = len(data)
		}
		var out, runs []byte
		for off := 0; off < len(data); off += step {
			run := rewriteRun(data[off:min(off+step, len(data))])
			out = append(out, run...)
			runs = binary.LittleEndian.AppendUint64(runs, uint64(len(run)))
		}
		records += int64(len(data) / rec)
		folded += int64((len(data) - len(out)) / rec)
		secs[i].Data = out
		secs = append(secs, checkpoint.SectionData{Name: fmt.Sprintf("runs.%d", p), Data: runs})
	}
	if _, err := st.Write(ck.Manifest, secs); err != nil {
		t.Fatal(err)
	}
	return records, folded
}

// sortedRun stably sorts one run of rec-byte records by destination and,
// with fold set, folds each record into the previous one of the same
// destination.
func sortedRun(rec int, fold func(dst, src []byte)) func([]byte) []byte {
	return func(run []byte) []byte {
		recs := make([][]byte, 0, len(run)/rec)
		for off := 0; off+rec <= len(run); off += rec {
			recs = append(recs, run[off:off+rec])
		}
		sort.SliceStable(recs, func(i, j int) bool {
			return binary.LittleEndian.Uint32(recs[i]) < binary.LittleEndian.Uint32(recs[j])
		})
		out := make([]byte, 0, len(run))
		for _, r := range recs {
			n := len(out)
			if fold != nil && n > 0 && binary.LittleEndian.Uint32(out[n-rec:]) == binary.LittleEndian.Uint32(r) {
				fold(out[n-rec+4:], r[4:])
				continue
			}
			out = append(out, r...)
		}
		return out
	}
}

// minFold is minLabel's fold: keep the smaller uint32 proposal.
func minFold(dst, src []byte) {
	if binary.LittleEndian.Uint32(src) < binary.LittleEndian.Uint32(dst) {
		copy(dst, src)
	}
}

// resumeMinLabel resumes minLabel from the newest checkpoint in dir on a
// fresh copy of the graph.
func resumeMinLabel(t *testing.T, g *dos.Graph, opts Options, dir string) (Result, []minVal) {
	t.Helper()
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Resume: true}
	eng := newMinLabelEngine(t, g, opts)
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	vals, err := eng.Values()
	if err != nil {
		t.Fatal(err)
	}
	return res, vals
}

// TestSortedCheckpointResume resumes from every mid-run checkpoint after
// re-writing it as a sorted-spill build did — sorted runs, and sorted
// runs folded by Combine — and demands the uninterrupted run's vertex
// states and counters. The only counter a fold may move is
// MessagesApplied, and exactly by the records it folded away.
func TestSortedCheckpointResume(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 74)
	gRef := buildDOS(t, edges)
	refRes, refVals := runMinLabel(t, gRef, ckptBaseOpts(gRef))
	if refRes.Iterations < 3 {
		t.Fatalf("converged in %d iterations; too few for mid-run resume", refRes.Iterations)
	}
	for _, mode := range []struct {
		name string
		fold func(dst, src []byte)
	}{{"sorted", nil}, {"combine", minFold}} {
		t.Run(mode.name, func(t *testing.T) {
			var records, folded int64
			for k := 1; k < refRes.Iterations; k++ {
				dir := t.TempDir()
				g1 := buildDOS(t, edges)
				opts := ckptBaseOpts(g1)
				opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
				runMinLabel(t, g1, opts)
				const rec = 8 // destination + uint32 label
				n, f := rewriteCheckpoint(t, dir, k, opts.MsgBufferBytes/rec*rec, sortedRun(rec, mode.fold))
				records += n
				folded += f

				g2 := buildDOS(t, edges)
				res, vals := resumeMinLabel(t, g2, ckptBaseOpts(g2), dir)
				want := stripDurability(refRes)
				want.MessagesApplied -= f
				if stripDurability(res) != want {
					t.Errorf("resume from %d (%d folded): result %+v, uninterrupted %+v", k, f, res, refRes)
				}
				for i := range refVals {
					if vals[i] != refVals[i] {
						t.Fatalf("resume from %d: vertex %d = %+v, uninterrupted %+v", k, i, vals[i], refVals[i])
					}
				}
			}
			if records == 0 {
				t.Fatal("no checkpoint held spilled messages; nothing was re-written")
			}
			if mode.fold != nil && folded == 0 {
				t.Fatal("the fold removed no records; the combine case checked nothing")
			}
		})
	}
}

// TestSortedResumeFromUnsortedCheckpoint: runs.<p> is metadata the
// resume must not trust. Here it claims one run over msgs.<p> data left
// in arrival (unsorted) order; the drain must replay the file as it is
// and reproduce the uninterrupted run byte for byte.
func TestSortedResumeFromUnsortedCheckpoint(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 42)
	gRef := buildDOS(t, edges)
	refRes, refVals := runMinLabel(t, gRef, ckptBaseOpts(gRef))

	dir := t.TempDir()
	g1 := buildDOS(t, edges)
	opts := ckptBaseOpts(g1)
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
	runMinLabel(t, g1, opts)
	const k = 1
	records, _ := rewriteCheckpoint(t, dir, k, 0, func(run []byte) []byte { return run })
	if records == 0 {
		t.Fatalf("checkpoint at iteration %d holds no spilled messages; the runs sections would be empty", k)
	}

	g2 := buildDOS(t, edges)
	res, vals := resumeMinLabel(t, g2, ckptBaseOpts(g2), dir)
	if stripDurability(res) != stripDurability(refRes) {
		t.Errorf("result %+v, uninterrupted %+v", res, refRes)
	}
	for i := range refVals {
		if vals[i] != refVals[i] {
			t.Fatalf("vertex %d = %+v, uninterrupted %+v", i, vals[i], refVals[i])
		}
	}
}

// TestCombineInvariants checks the bookkeeping of a resume from a folded
// checkpoint on a high-fan-in Zipf graph, where many spilled messages
// share a destination, under parallel workers and selective scheduling
// (so the activeset section rides along): vertex states are unchanged,
// the send-side counters are untouched, and applied + folded balances
// against the uninterrupted run's applied count.
func TestCombineInvariants(t *testing.T) {
	edges := gen.Zipf(400, 8000, 1.2, 72)
	base := func(g *dos.Graph) Options {
		return Options{
			MemoryBudget:        budgetForPartitions(g, 8, 4, 128),
			DynamicMessages:     true,
			MsgBufferBytes:      128,
			WorkerParallelism:   4,
			SelectiveScheduling: true,
		}
	}
	gRef := buildDOS(t, edges)
	refRes, refVals := runMinLabel(t, gRef, base(gRef))
	if refRes.MessagesSpilled == 0 || refRes.Iterations < 3 {
		t.Fatalf("spilled %d over %d iterations; the test needs cross-partition traffic mid-run",
			refRes.MessagesSpilled, refRes.Iterations)
	}
	var folded int64
	for k := 1; k < refRes.Iterations; k++ {
		dir := t.TempDir()
		g1 := buildDOS(t, edges)
		opts := base(g1)
		opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
		runMinLabel(t, g1, opts)
		const rec = 8
		_, f := rewriteCheckpoint(t, dir, k, opts.MsgBufferBytes/rec*rec, sortedRun(rec, minFold))
		folded += f

		g2 := buildDOS(t, edges)
		res, vals := resumeMinLabel(t, g2, base(g2), dir)
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("resume from %d: vertex %d = %+v, uninterrupted %+v", k, i, vals[i], refVals[i])
			}
		}
		if res.MessagesSent != refRes.MessagesSent ||
			res.MessagesInline != refRes.MessagesInline ||
			res.MessagesBuffered != refRes.MessagesBuffered ||
			res.MessagesSpilled != refRes.MessagesSpilled {
			t.Errorf("resume from %d: send-side counters moved: resumed %+v, uninterrupted %+v", k, res, refRes)
		}
		if got := res.MessagesApplied + f; got != refRes.MessagesApplied {
			t.Errorf("resume from %d: applied %d + folded %d = %d, want uninterrupted applied %d",
				k, res.MessagesApplied, f, got, refRes.MessagesApplied)
		}
		if res.UpdatesRun != refRes.UpdatesRun || res.BlocksScanned != refRes.BlocksScanned ||
			res.BlocksSkipped != refRes.BlocksSkipped || res.Iterations != refRes.Iterations {
			t.Errorf("resume from %d: schedule moved: resumed %+v, uninterrupted %+v", k, res, refRes)
		}
	}
	if folded == 0 {
		t.Fatal("the high-fan-in graph folded nothing; the invariants were not exercised")
	}
}
