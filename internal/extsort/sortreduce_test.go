package extsort

import (
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"

	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Tests for the sort-reduce additions: the streaming Merger, the Combine
// fold through Sort, the Stats report, and removal-error surfacing.

// kcRecord is an 8-byte (key, count) record; kcCombine sums counts so a
// sort over records with count 1 yields per-key multiplicities.
func kcKey(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) }

func kcCombine(dst, src []byte) {
	sum := binary.LittleEndian.Uint32(dst[4:]) + binary.LittleEndian.Uint32(src[4:])
	binary.LittleEndian.PutUint32(dst[4:], sum)
}

func writeKC(t *testing.T, dev *storage.Device, name string, keys []uint32) {
	t.Helper()
	buf := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(buf[8*i:], k)
		binary.LittleEndian.PutUint32(buf[8*i+4:], 1)
	}
	if err := storage.WriteAll(dev, name, buf); err != nil {
		t.Fatal(err)
	}
}

func readKC(t *testing.T, dev *storage.Device, name string) map[uint32]uint32 {
	t.Helper()
	data, err := storage.ReadAllFile(dev, name)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32]uint32)
	prev := int64(-1)
	for i := 0; i+8 <= len(data); i += 8 {
		k := binary.LittleEndian.Uint32(data[i:])
		if int64(k) < prev {
			t.Fatalf("output not sorted: key %d after %d", k, prev)
		}
		prev = int64(k)
		out[k] += binary.LittleEndian.Uint32(data[i+4:])
	}
	return out
}

// TestSortCombineFolds sorts duplicate-heavy records with the Combine
// hook through run formation AND merge passes (tiny budget, FanIn 2) and
// checks one output record per distinct key with the exact multiplicity,
// plus a balanced Stats report.
func TestSortCombineFolds(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	rng := rand.New(rand.NewSource(61))
	n := 40_000
	keys := make([]uint32, n)
	wantCount := make(map[uint32]uint32)
	for i := range keys {
		keys[i] = rng.Uint32() % 300 // heavy duplication
		wantCount[keys[i]]++
	}
	writeKC(t, dev, "in", keys)
	var st Stats
	err := Sort(Config{
		Dev:          dev,
		RecordSize:   8,
		Key:          kcKey,
		Combine:      kcCombine,
		MemoryBudget: MinMemoryBudget, // 8k records per run -> 5 runs
		FanIn:        2,               // force intermediate passes to fold too
		Stats:        &st,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	got := readKC(t, dev, "out")
	if len(got) != len(wantCount) {
		t.Fatalf("got %d distinct keys, want %d", len(got), len(wantCount))
	}
	for k, w := range wantCount {
		if got[k] != w {
			t.Fatalf("key %d count = %d, want %d", k, got[k], w)
		}
	}
	if st.RecordsIn != int64(n) {
		t.Errorf("RecordsIn = %d, want %d", st.RecordsIn, n)
	}
	if st.RecordsOut != int64(len(wantCount)) {
		t.Errorf("RecordsOut = %d, want %d distinct keys", st.RecordsOut, len(wantCount))
	}
	if st.RecordsIn != st.RecordsOut+st.Combined {
		t.Errorf("RecordsIn %d != RecordsOut %d + Combined %d", st.RecordsIn, st.RecordsOut, st.Combined)
	}
	if st.Runs < 2 {
		t.Errorf("Runs = %d, want several under a tiny budget", st.Runs)
	}
	if st.MergePasses < 2 {
		t.Errorf("MergePasses = %d, want > 1 with FanIn 2", st.MergePasses)
	}
	if st.RemoveErrors != 0 {
		t.Errorf("RemoveErrors = %d on a healthy device", st.RemoveErrors)
	}
}

// TestSortCombineLessPath exercises the Less-based combine (no Key): same
// fold, comparison-equality grouping.
func TestSortCombineLessPath(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	keys := []uint32{5, 2, 5, 5, 2, 9, 2, 2}
	writeKC(t, dev, "in", keys)
	var st Stats
	err := Sort(Config{
		Dev:          dev,
		RecordSize:   8,
		Less:         u32Less, // compares the key half only
		Combine:      kcCombine,
		MemoryBudget: 1, // one record per run: all folding happens in merges
		FanIn:        2,
		Stats:        &st,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	got := readKC(t, dev, "out")
	want := map[uint32]uint32{2: 4, 5: 3, 9: 1}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d count = %d, want %d (all: %v)", k, got[k], w, got)
		}
	}
	if st.Combined != int64(len(keys)-len(want)) {
		t.Errorf("Combined = %d, want %d", st.Combined, len(keys)-len(want))
	}
}

// TestSortStatsNoCombine checks the Stats report on a plain multi-pass
// sort: counts balanced with nothing folded.
func TestSortStatsNoCombine(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	rng := rand.New(rand.NewSource(62))
	vals := make([]uint32, 50_000)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	writeU32s(t, dev, "in", vals)
	var st Stats
	err := Sort(Config{
		Dev:          dev,
		RecordSize:   4,
		Less:         u32Less,
		MemoryBudget: MinMemoryBudget,
		FanIn:        2,
		Stats:        &st,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsIn != int64(len(vals)) || st.RecordsOut != int64(len(vals)) {
		t.Errorf("RecordsIn/Out = %d/%d, want %d/%d", st.RecordsIn, st.RecordsOut, len(vals), len(vals))
	}
	if st.Combined != 0 {
		t.Errorf("Combined = %d without a Combine hook", st.Combined)
	}
	if st.Runs != 4 {
		t.Errorf("Runs = %d, want 4 (64KiB budget over 200KB)", st.Runs)
	}
	if st.MergePasses != 2 {
		t.Errorf("MergePasses = %d, want 2 (4 runs at fan-in 2)", st.MergePasses)
	}
}

// TestSortSingleRunStats: a one-run sort is a straight copy — no merge
// passes, counts still reported.
func TestSortSingleRunStats(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", []uint32{3, 1, 2})
	var st Stats
	err := Sort(Config{Dev: dev, RecordSize: 4, Less: u32Less, Stats: &st}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.MergePasses != 0 {
		t.Errorf("Runs/MergePasses = %d/%d, want 1/0", st.Runs, st.MergePasses)
	}
	if st.RecordsIn != 3 || st.RecordsOut != 3 {
		t.Errorf("RecordsIn/Out = %d/%d, want 3/3", st.RecordsIn, st.RecordsOut)
	}
}

// TestSortSurfacesRemoveErrors is the regression test for the dropped
// Device.Remove errors: with every removal failing, Sort must still
// produce a correct output, but the failures must land in
// Stats.RemoveErrors and graphz_remove_errors_total instead of
// disappearing. RemoveInput makes the input file one of the failures.
func TestSortSurfacesRemoveErrors(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	rng := rand.New(rand.NewSource(63))
	vals := make([]uint32, 50_000)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	writeU32s(t, fd.Device, "in", vals)
	fd.Arm(storage.FaultPlan{FailRemoves: true})

	reg := obs.NewRegistry()
	var st Stats
	err := Sort(Config{
		Dev:          fd.Device,
		RecordSize:   4,
		Less:         u32Less,
		MemoryBudget: MinMemoryBudget,
		FanIn:        2,
		RemoveInput:  true,
		Stats:        &st,
		Obs:          reg,
	}, "in", "out")
	if err != nil {
		t.Fatalf("leaked temp files must not fail the sort: %v", err)
	}
	fd.Disarm()

	got := readU32s(t, fd.Device, "out")
	if len(got) != len(vals) {
		t.Fatalf("output has %d records, want %d", len(got), len(vals))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("output unsorted at %d", i)
		}
	}
	// Every removal failed: the input, each formed run, and each
	// intermediate merge file — at least Runs + 1.
	if st.RemoveErrors < int64(st.Runs)+1 {
		t.Errorf("RemoveErrors = %d, want >= %d (runs + input)", st.RemoveErrors, st.Runs+1)
	}
	if v := reg.CounterValue(RemoveErrorsCounter); v != st.RemoveErrors {
		t.Errorf("%s = %d, Stats says %d", RemoveErrorsCounter, v, st.RemoveErrors)
	}
	if !fd.Device.Exists("in") {
		t.Error("input vanished although its removal failed")
	}
}

// TestSortRemoveErrorsNilObs: removal failures with no registry must not
// panic (the obs API is nil-safe) and still count in Stats.
func TestSortRemoveErrorsNilObs(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, fd.Device, "in", []uint32{2, 1})
	fd.Arm(storage.FaultPlan{FailRemoves: true})
	var st Stats
	err := Sort(Config{
		Dev: fd.Device, RecordSize: 4, Less: u32Less, RemoveInput: true, Stats: &st,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if st.RemoveErrors == 0 {
		t.Error("RemoveErrors = 0 with every removal failing")
	}
}

// --- Merger unit tests ---

func sliceOfU32(vals ...uint32) Source {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return NewSliceSource(buf)
}

func u32KeyFn(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) }

func drainMerger(t *testing.T, m *Merger) []uint32 {
	t.Helper()
	var out []uint32
	for {
		rec, err := m.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, binary.LittleEndian.Uint32(rec))
	}
}

func TestMergerBasic(t *testing.T) {
	m, err := NewMerger(MergeConfig{RecordSize: 4, Key: u32KeyFn}, []Source{
		sliceOfU32(1, 4, 7),
		sliceOfU32(2, 5, 8),
		sliceOfU32(), // empty source is legal
		sliceOfU32(3, 6, 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drainMerger(t, m)
	for i, w := range []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		if got[i] != w {
			t.Fatalf("merge order %v", got)
		}
	}
	if m.Combined() != 0 {
		t.Errorf("Combined = %d without a hook", m.Combined())
	}
}

func TestMergerStability(t *testing.T) {
	// Equal keys must come out in source order: records are (key,
	// payload) and only the key participates in comparison.
	mk := func(pairs ...[2]uint32) Source {
		buf := make([]byte, 8*len(pairs))
		for i, p := range pairs {
			binary.LittleEndian.PutUint32(buf[8*i:], p[0])
			binary.LittleEndian.PutUint32(buf[8*i+4:], p[1])
		}
		return NewSliceSource(buf)
	}
	for name, cfg := range map[string]MergeConfig{
		"key":  {RecordSize: 8, Key: u32KeyFn},
		"less": {RecordSize: 8, Less: u32Less},
	} {
		m, err := NewMerger(cfg, []Source{
			mk([2]uint32{1, 10}, [2]uint32{2, 11}),
			mk([2]uint32{1, 20}, [2]uint32{2, 21}),
		})
		if err != nil {
			t.Fatal(err)
		}
		var got [][2]uint32
		for {
			rec, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, [2]uint32{
				binary.LittleEndian.Uint32(rec),
				binary.LittleEndian.Uint32(rec[4:]),
			})
		}
		want := [][2]uint32{{1, 10}, {1, 20}, {2, 11}, {2, 21}}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order %v, want %v", name, got, want)
			}
		}
	}
}

func TestMergerCombine(t *testing.T) {
	mk := func(keys ...uint32) Source {
		buf := make([]byte, 8*len(keys))
		for i, k := range keys {
			binary.LittleEndian.PutUint32(buf[8*i:], k)
			binary.LittleEndian.PutUint32(buf[8*i+4:], 1)
		}
		return NewSliceSource(buf)
	}
	m, err := NewMerger(MergeConfig{RecordSize: 8, Key: u32KeyFn, Combine: kcCombine}, []Source{
		mk(1, 2, 2, 5),
		mk(2, 5, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, c uint32 }
	var got []kv
	for {
		rec, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, kv{binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint32(rec[4:])})
	}
	want := []kv{{1, 1}, {2, 3}, {5, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if m.Combined() != 4 {
		t.Errorf("Combined = %d, want 4", m.Combined())
	}
}

func TestMergerErrors(t *testing.T) {
	if _, err := NewMerger(MergeConfig{RecordSize: 0, Key: u32KeyFn}, nil); err == nil {
		t.Error("zero record size accepted")
	}
	if _, err := NewMerger(MergeConfig{RecordSize: 4}, nil); err == nil {
		t.Error("missing Less and Key accepted")
	}
	// An all-empty merge yields immediate EOF.
	m, err := NewMerger(MergeConfig{RecordSize: 4, Key: u32KeyFn}, []Source{sliceOfU32()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(); err != io.EOF {
		t.Errorf("empty merge Next = %v, want io.EOF", err)
	}
	// A torn slice source fails loudly, both at priming and mid-merge.
	if _, err := NewMerger(MergeConfig{RecordSize: 4, Key: u32KeyFn},
		[]Source{NewSliceSource([]byte{1, 2, 3})}); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn source at priming: err = %v", err)
	}
	m, err = NewMerger(MergeConfig{RecordSize: 4, Key: u32KeyFn},
		[]Source{NewSliceSource([]byte{1, 0, 0, 0, 9})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn source mid-merge: err = %v", err)
	}
}

func TestSortRecordsAndCombineSorted(t *testing.T) {
	// SortRecords: stable by key.
	buf := make([]byte, 8*5)
	for i, p := range [][2]uint32{{3, 0}, {1, 1}, {3, 2}, {1, 3}, {2, 4}} {
		binary.LittleEndian.PutUint32(buf[8*i:], p[0])
		binary.LittleEndian.PutUint32(buf[8*i+4:], p[1])
	}
	SortRecords(buf, 8, u32KeyFn, nil)
	want := [][2]uint32{{1, 1}, {1, 3}, {2, 4}, {3, 0}, {3, 2}}
	for i, w := range want {
		k := binary.LittleEndian.Uint32(buf[8*i:])
		p := binary.LittleEndian.Uint32(buf[8*i+4:])
		if k != w[0] || p != w[1] {
			t.Fatalf("SortRecords[%d] = (%d,%d), want %v", i, k, p, w)
		}
	}
	// CombineSorted folds the adjacent equal keys in place.
	for i := range want {
		binary.LittleEndian.PutUint32(buf[8*i+4:], 1)
	}
	out, folded := CombineSorted(buf, 8, u32KeyFn, kcCombine)
	if folded != 2 || len(out) != 8*3 {
		t.Fatalf("folded %d into %d bytes, want 2 into 24", folded, len(out))
	}
	for i, w := range [][2]uint32{{1, 2}, {2, 1}, {3, 2}} {
		k := binary.LittleEndian.Uint32(out[8*i:])
		c := binary.LittleEndian.Uint32(out[8*i+4:])
		if k != w[0] || c != w[1] {
			t.Fatalf("CombineSorted[%d] = (%d,%d), want %v", i, k, c, w)
		}
	}
	// Degenerate inputs pass through untouched.
	if out, folded := CombineSorted(nil, 8, u32KeyFn, kcCombine); folded != 0 || len(out) != 0 {
		t.Error("empty chunk changed")
	}
	one := make([]byte, 8)
	if out, folded := CombineSorted(one, 8, u32KeyFn, kcCombine); folded != 0 || len(out) != 8 {
		t.Error("single-record chunk changed")
	}
}
