package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Tests for Sort's Stats report, removal-error surfacing and the Merger
// units.

// memSource serves records from an in-memory sorted chunk; a trailing
// partial record reads as torn.
type memSource struct{ data []byte }

func newMemSource(data []byte) Source { return &memSource{data: data} }

func (s *memSource) ReadRecord(rec []byte) error {
	if len(s.data) == 0 {
		return io.EOF
	}
	if len(s.data) < len(rec) {
		return fmt.Errorf("torn record: %d bytes left, record is %d", len(s.data), len(rec))
	}
	copy(rec, s.data[:len(rec)])
	s.data = s.data[len(rec):]
	return nil
}

// TestSortStatsNoCombine checks the Stats report on a plain multi-pass
// sort: every record in comes out, over the expected runs and passes.
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
	return newMemSource(buf)
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
		return newMemSource(buf)
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
		[]Source{newMemSource([]byte{1, 2, 3})}); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn source at priming: err = %v", err)
	}
	m, err = NewMerger(MergeConfig{RecordSize: 4, Key: u32KeyFn},
		[]Source{newMemSource([]byte{1, 0, 0, 0, 9})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn source mid-merge: err = %v", err)
	}
}

// TestSortRecordsStable: equal keys keep their input order.
func TestSortRecordsStable(t *testing.T) {
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
}
