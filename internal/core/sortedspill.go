package core

// Sorted spill path (Options.SortedSpill / Options.Combine; DESIGN.md
// §11). The DOS layout concentrates high-in-degree vertices at the head
// of the ID space, so converging algorithms hammer a few destinations
// with thousands of spilled messages. The unsorted drain replays them in
// arrival order — a random walk over the partition's vertex states. Here
// every spilled buffer is stably sorted by destination before it hits
// the device (one sorted run per spill, lengths tracked in msgRuns), and
// the drain merge-sorts the runs plus the in-memory tail, so applies
// stream through the vertex states sequentially — the BigSparse
// observation that sorting update logs turns random applies into merges.
//
// Ordering argument: the stable sort keeps each run's per-destination
// records in send order, runs enter the file in spill order, and the
// merge breaks ties by source order with the in-memory tail last — so
// for every destination the merged stream replays its messages in the
// exact order the unsorted drain would. Apply only touches its
// destination vertex, hence vertex states and counters are byte-identical
// to the unsorted path for every program, order-sensitive ones included.
//
// With Options.Combine, same-destination records are additionally folded
// into one at every stage — spill-buffer sort, intermediate merge
// passes, and the final drain merge — which is only sound for programs
// whose Apply is a commutative, associative fold (the Combiner hook).

import (
	"fmt"
	"io"

	"encoding/binary"

	"graphz/internal/extsort"
	"graphz/internal/graph"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// drainFanIn bounds how many sorted runs one drain merge reads
// concurrently; partitions that accumulated more runs are first reduced
// with intermediate merge passes (counted in DrainMergePasses).
const drainFanIn = extsort.DefaultFanIn

// msgRecordKey sorts message records by their 4-byte little-endian
// destination vertex ID prefix.
func msgRecordKey(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec))
}

// mergeScratchFile names partition p's intermediate-merge scratch file;
// passes alternate between the two sides.
func (e *Engine[V, M]) mergeScratchFile(p, side int) string {
	return fmt.Sprintf("%s.merge%d.%d", e.opts.Name, side, p)
}

// combineRecord folds the later record src into dst; both address the
// same destination vertex. The fold is charged like the apply it
// replaces, so modeled compute stays honest — the win is in IO and in
// the drain's apply count.
func (e *Engine[V, M]) combineRecord(dst, src []byte) {
	m := e.combineFn(e.mcodec.Decode(dst[4:]), e.mcodec.Decode(src[4:]))
	e.mcodec.Encode(dst[4:], m)
	e.charge(1, sim.CostMessageApply)
}

// noteCombined accounts n records folded away by the Combine hook.
func (e *Engine[V, M]) noteCombined(n int64) {
	e.combined += n
	e.eo.combinedMsgs.Add(n)
}

// mergeConfig is the drain merge's record configuration: key-ordered by
// destination, combining when the program supports it.
func (e *Engine[V, M]) mergeConfig(rec int) extsort.MergeConfig {
	mc := extsort.MergeConfig{RecordSize: rec, Key: msgRecordKey}
	if e.combineFn != nil {
		mc.Combine = e.combineRecord
	}
	return mc
}

// mergeBlockSize sizes each merge input's read buffer so a full
// fan-in-wide merge stays within the drain's share of the memory budget.
func (e *Engine[V, M]) mergeBlockSize() int {
	bs := e.drainChunkBytes() / drainFanIn
	if bs < 4096 {
		bs = 4096
	}
	return bs
}

// drainMessagesSorted is the sorted-spill counterpart of drainMessages:
// it merge-sorts the partition's on-device runs and in-memory tail by
// destination and applies the merged stream, then clears both.
func (e *Engine[V, M]) drainMessagesSorted(p int, lo graph.VertexID) error {
	rec := 4 + e.msize
	if len(e.msgBufs[p]) == 0 {
		// Nothing in memory; skip even opening the file when the spill
		// store is empty too (Size is an uncharged catalog lookup).
		if sz, err := e.dev.Size(e.msgFile(p)); err != nil {
			return err
		} else if sz == 0 {
			e.eo.drainSkipped.Inc()
			return nil
		}
	}
	f, err := e.dev.Open(e.msgFile(p))
	if err != nil {
		return err
	}
	if f.Size()%int64(rec) != 0 {
		return fmt.Errorf("core: message file %q torn (%d bytes, record %d)", e.msgFile(p), f.Size(), rec)
	}
	runs := e.msgRuns[p]
	var covered int64
	for _, n := range runs {
		covered += n
	}
	if covered != f.Size() {
		// The file holds bytes the run metadata does not cover — a resume
		// from a checkpoint written without sorted spill. Arrival order is
		// always safe to replay; the file is empty afterwards, and every
		// spill from here on is a sorted run again.
		e.msgRuns[p] = runs[:0]
		return e.drainMessages(p, lo)
	}

	// Reduce the run count to the merge fan-in with intermediate passes,
	// alternating between the two scratch files so each pass streams
	// sequentially from one file into the other.
	srcFile, side := f, 0
	for len(runs) > drainFanIn {
		dstFile, newRuns, err := e.mergeRunsPass(p, srcFile, runs, e.mergeScratchFile(p, side))
		if err != nil {
			return err
		}
		if err := srcFile.Truncate(0); err != nil {
			return err
		}
		srcFile, runs = dstFile, newRuns
		side = 1 - side
	}

	// Final merge: the surviving runs plus the destination-sorted copy of
	// the in-memory tail. The tail is the youngest source (last ord), so
	// per-destination send order is preserved across the spill boundary.
	bs := e.mergeBlockSize()
	srcs := make([]extsort.Source, 0, len(runs)+1)
	var off int64
	for _, n := range runs {
		r := storage.NewRangeReader(srcFile, off, off+n)
		r.SetBlockSize(bs)
		srcs = append(srcs, extsort.NewReaderSource(r))
		off += n
	}
	mem := e.msgBufs[p]
	if len(mem) > 0 {
		tail := append([]byte(nil), mem...)
		extsort.SortRecords(tail, rec, msgRecordKey, &e.sortScratch)
		e.charge(int64(len(tail)/rec), sim.CostRecordSort)
		srcs = append(srcs, extsort.NewSliceSource(tail))
	}
	m, err := extsort.NewMerger(e.mergeConfig(rec), srcs)
	if err != nil {
		return err
	}
	var heatAcc map[int64]int64
	if e.eo.heat != nil {
		heatAcc = make(map[int64]int64)
	}
	for {
		recBytes, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("core: draining messages for partition %d: %w", p, err)
		}
		dst := e.applyRecord(recBytes, lo)
		if heatAcc != nil {
			heatAcc[e.vstateBlock(dst)]++
		}
	}
	if folded := m.Combined(); folded > 0 {
		e.noteCombined(folded)
	}
	if err := srcFile.Truncate(0); err != nil {
		return err
	}
	e.msgRuns[p] = e.msgRuns[p][:0]
	if mem != nil {
		e.msgBufs[p] = mem[:0]
	}
	if len(heatAcc) > 0 {
		e.flushDrainHeat(heatAcc)
	}
	return nil
}

// mergeRunsPass merges groups of drainFanIn consecutive runs from src
// into the named scratch file, returning its handle and the new (fewer)
// run lengths. Records folded by Combine here never reach the scratch
// file, so they count toward SpillBytesSaved like pre-spill folds.
func (e *Engine[V, M]) mergeRunsPass(p int, src *storage.File, runs []int64, dstName string) (*storage.File, []int64, error) {
	rec := 4 + e.msize
	dst, err := e.dev.Create(dstName)
	if err != nil {
		return nil, nil, err
	}
	w := storage.NewWriter(dst)
	bs := e.mergeBlockSize()
	newRuns := make([]int64, 0, (len(runs)+drainFanIn-1)/drainFanIn)
	var off, records int64
	for lo := 0; lo < len(runs); lo += drainFanIn {
		hi := lo + drainFanIn
		if hi > len(runs) {
			hi = len(runs)
		}
		srcs := make([]extsort.Source, 0, hi-lo)
		for i := lo; i < hi; i++ {
			r := storage.NewRangeReader(src, off, off+runs[i])
			r.SetBlockSize(bs)
			srcs = append(srcs, extsort.NewReaderSource(r))
			off += runs[i]
		}
		m, err := extsort.NewMerger(e.mergeConfig(rec), srcs)
		if err != nil {
			return nil, nil, err
		}
		var written int64
		for {
			recBytes, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, fmt.Errorf("core: merge pass for partition %d: %w", p, err)
			}
			if _, err := w.Write(recBytes); err != nil {
				return nil, nil, fmt.Errorf("core: merge pass for partition %d: %w", p, err)
			}
			written += int64(len(recBytes))
			records++
		}
		if folded := m.Combined(); folded > 0 {
			e.noteCombined(folded)
			saved := folded * int64(rec)
			e.spillSaved += saved
			e.eo.sortedSaved.Add(saved)
		}
		newRuns = append(newRuns, written)
	}
	if err := w.Flush(); err != nil {
		return nil, nil, err
	}
	e.charge(records, sim.CostRecordSort)
	e.mergePasses++
	e.eo.drainMerges.Inc()
	return dst, newRuns, nil
}
