package extsort

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refMerger is the container/heap merge the loser tree replaced, kept as
// the differential reference. It orders sources by (record, source
// order), as Merger documents.
type refMerger struct {
	h   *refHeap
	out []byte
}

type refSource struct {
	src Source
	cur []byte
	key uint64
	ord int
}

type refHeap struct {
	src   []*refSource
	less  func(a, b []byte) bool
	keyFn func([]byte) uint64
}

func (h *refHeap) Len() int { return len(h.src) }

func (h *refHeap) Less(i, j int) bool {
	a, b := h.src[i], h.src[j]
	if h.keyFn != nil {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.ord < b.ord
	}
	if h.less(a.cur, b.cur) {
		return true
	}
	if h.less(b.cur, a.cur) {
		return false
	}
	return a.ord < b.ord
}

func (h *refHeap) Swap(i, j int) { h.src[i], h.src[j] = h.src[j], h.src[i] }
func (h *refHeap) Push(x any)    { h.src = append(h.src, x.(*refSource)) }
func (h *refHeap) Pop() any {
	x := h.src[len(h.src)-1]
	h.src = h.src[:len(h.src)-1]
	return x
}

func newRefMerger(cfg MergeConfig, srcs []Source) (*refMerger, error) {
	h := &refHeap{less: cfg.Less, keyFn: cfg.Key}
	for ord, s := range srcs {
		rs := &refSource{src: s, cur: make([]byte, cfg.RecordSize), ord: ord}
		if err := s.ReadRecord(rs.cur); err != nil {
			if err == io.EOF {
				continue
			}
			return nil, err
		}
		if h.keyFn != nil {
			rs.key = h.keyFn(rs.cur)
		}
		h.src = append(h.src, rs)
	}
	heap.Init(h)
	return &refMerger{h: h, out: make([]byte, cfg.RecordSize)}, nil
}

func (m *refMerger) Next() ([]byte, error) {
	if m.h.Len() == 0 {
		return nil, io.EOF
	}
	top := m.h.src[0]
	copy(m.out, top.cur)
	if err := m.advanceHead(); err != nil {
		return nil, err
	}
	return m.out, nil
}

func (m *refMerger) advanceHead() error {
	top := m.h.src[0]
	switch err := top.src.ReadRecord(top.cur); err {
	case nil:
		if m.h.keyFn != nil {
			top.key = m.h.keyFn(top.cur)
		}
		heap.Fix(m.h, 0)
		return nil
	case io.EOF:
		heap.Pop(m.h)
		return nil
	default:
		return err
	}
}

// Merge test records are 8 bytes: a 4-byte key, the 2-byte source index
// and a 2-byte sequence number within the source, so the merged bytes
// show which source won every tie.
const mrecSz = 8

func mrecLess(a, b []byte) bool {
	return binary.LittleEndian.Uint32(a) < binary.LittleEndian.Uint32(b)
}

// mergeInputs builds fanIn sorted runs from the keys that keyOf yields;
// lenOf gives each run's length (0 for an empty source).
func mergeInputs(fanIn int, lenOf func(s int) int, keyOf func() uint32) [][]byte {
	runs := make([][]byte, fanIn)
	for s := range runs {
		keys := make([]uint32, lenOf(s))
		for i := range keys {
			keys[i] = keyOf()
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		run := make([]byte, len(keys)*mrecSz)
		for i, k := range keys {
			binary.LittleEndian.PutUint32(run[i*mrecSz:], k)
			binary.LittleEndian.PutUint16(run[i*mrecSz+4:], uint16(s))
			binary.LittleEndian.PutUint16(run[i*mrecSz+6:], uint16(i))
		}
		runs[s] = run
	}
	return runs
}

func sliceSources(runs [][]byte) []Source {
	srcs := make([]Source, len(runs))
	for i, r := range runs {
		srcs[i] = newMemSource(r)
	}
	return srcs
}

// mergeAll drains a merge into one byte stream.
func mergeAll(t *testing.T, next func() ([]byte, error)) []byte {
	t.Helper()
	var out []byte
	for {
		rec, err := next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec...)
	}
}

// TestLoserTreeMatchesHeap: the loser-tree Merger and the heap reference
// produce byte-identical streams at fan-in 1, 2, 5, 16 and 17, with
// empty sources, with keys equal across every source (earlier source
// wins), in Key and Less modes.
func TestLoserTreeMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		name  string
		lenOf func(s int) int
		keyOf func() uint32
	}{
		{"random", func(int) int { return rng.Intn(60) }, func() uint32 { return rng.Uint32() % 500 }},
		{"empty-sources", func(s int) int {
			if s%3 == 1 {
				return 0
			}
			return rng.Intn(40)
		}, func() uint32 { return rng.Uint32() % 50 }},
		{"all-equal", func(int) int { return 1 + rng.Intn(20) }, func() uint32 { return 7 }},
		{"all-empty", func(int) int { return 0 }, func() uint32 { return 0 }},
		{"max-key", func(int) int { return rng.Intn(10) }, func() uint32 { return ^uint32(rng.Intn(2)) }},
	}
	modes := []struct {
		name string
		cfg  MergeConfig
	}{
		{"key", MergeConfig{RecordSize: mrecSz, Key: u32KeyFn}},
		// Maps key 0xffffffff to math.MaxUint64, the value a finished
		// source's cached key holds.
		{"key-high", MergeConfig{RecordSize: mrecSz, Key: func(rec []byte) uint64 { return u32KeyFn(rec)<<32 | 0xffffffff }}},
		{"less", MergeConfig{RecordSize: mrecSz, Less: mrecLess}},
	}
	for _, fanIn := range []int{1, 2, 5, 16, 17} {
		for _, sh := range shapes {
			runs := mergeInputs(fanIn, sh.lenOf, sh.keyOf)
			for _, mode := range modes {
				t.Run(fmt.Sprintf("fanin%d/%s/%s", fanIn, sh.name, mode.name), func(t *testing.T) {
					ref, err := newRefMerger(mode.cfg, sliceSources(runs))
					if err != nil {
						t.Fatal(err)
					}
					want := mergeAll(t, ref.Next)
					m, err := NewMerger(mode.cfg, sliceSources(runs))
					if err != nil {
						t.Fatal(err)
					}
					if got := mergeAll(t, m.Next); !bytes.Equal(got, want) {
						t.Fatalf("loser tree: %d bytes; heap: %d bytes", len(got), len(want))
					}
					if _, err := m.Next(); err != io.EOF {
						t.Fatalf("Next after the end = %v, want io.EOF", err)
					}
				})
			}
		}
	}
}

// TestMergerErrorNamesCallerSource: an advance failure names the source
// by its index in the caller's slice, even when empty sources before it
// were dropped from the tree.
func TestMergerErrorNamesCallerSource(t *testing.T) {
	m, err := NewMerger(MergeConfig{RecordSize: 4, Key: u32KeyFn}, []Source{
		sliceOfU32(), sliceOfU32(), newMemSource([]byte{1, 0, 0, 0, 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(); err == nil || !strings.Contains(err.Error(), "merge source 2") {
		t.Fatalf("Next = %v, want an error naming merge source 2", err)
	}
}

// BenchmarkMerge times a 16-way merge of in-memory sorted runs.
func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	runs := mergeInputs(DefaultFanIn, func(int) int { return 4096 }, func() uint32 { return rng.Uint32() % (1 << 14) })
	var total int64
	for _, r := range runs {
		total += int64(len(r))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewMerger(MergeConfig{RecordSize: mrecSz, Key: u32KeyFn}, sliceSources(runs))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := m.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
