package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSortByKey is the comparison sort the radix sort replaced, kept as
// the differential reference: sort.Slice over (key, index) pairs with
// the index as tie-break, then one permutation copy.
func refSortByKey(chunk []byte, recSz int, key func([]byte) uint64) {
	n := len(chunk) / recSz
	if n < 2 {
		return
	}
	type keyed struct {
		k   uint64
		idx int32
	}
	ks := make([]keyed, n)
	for i := range ks {
		ks[i] = keyed{k: key(chunk[i*recSz : (i+1)*recSz]), idx: int32(i)}
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].k != ks[b].k {
			return ks[a].k < ks[b].k
		}
		return ks[a].idx < ks[b].idx
	})
	out := make([]byte, len(chunk))
	for i, kv := range ks {
		copy(out[i*recSz:(i+1)*recSz], chunk[int(kv.idx)*recSz:int(kv.idx+1)*recSz])
	}
	copy(chunk, out)
}

// keyedChunk builds one record of recSz bytes (recSz >= 4) per key. A
// record holds its input position in its first 4 bytes (then filler),
// and the returned key function looks its key up by that position, so
// records with equal keys still differ and any stability slip changes
// the sorted bytes.
func keyedChunk(keys []uint64, recSz int) ([]byte, func([]byte) uint64) {
	chunk := make([]byte, len(keys)*recSz)
	for i := range keys {
		rec := chunk[i*recSz : (i+1)*recSz]
		binary.LittleEndian.PutUint32(rec, uint32(i))
		for j := 4; j < recSz; j++ {
			rec[j] = byte(i*7 + j)
		}
	}
	return chunk, func(rec []byte) uint64 { return keys[binary.LittleEndian.Uint32(rec)] }
}

// adversarialKeys returns the key sets the radix sort must order exactly
// like the comparison sort.
func adversarialKeys() map[string][]uint64 {
	rng := rand.New(rand.NewSource(11))
	const n = 3000
	sets := map[string][]uint64{
		"n0":       {},
		"n1":       {42},
		"n2":       {7, 3},
		"n2-equal": {5, 5},
	}
	fill := func(name string, f func(i int) uint64) {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = f(i)
		}
		sets[name] = ks
	}
	fill("all-equal", func(int) uint64 { return 0xdeadbeefcafef00d })
	fill("top-byte-only", func(int) uint64 { return rng.Uint64()>>56<<56 | 0x00ffeeddccbbaa99 })
	fill("bottom-byte-only", func(int) uint64 { return 0x1122334455667700 | rng.Uint64()&0xff })
	fill("random-64", func(int) uint64 { return rng.Uint64() })
	fill("duplicates", func(int) uint64 { return rng.Uint64() % 7 << 40 })
	fill("degree-complement", func(i int) uint64 { return uint64(^uint32(rng.Uint64()%50))<<32 | uint64(i%300) })
	fill("descending", func(i int) uint64 { return uint64(n - i) })
	fill("extremes", func(i int) uint64 {
		if i%2 == 0 {
			return math.MaxUint64
		}
		return 0
	})
	return sets
}

// TestRadixSortMatchesReference: SortRecords and the comparison sort
// produce byte-identical chunks over adversarial key sets, for record
// sizes on the fixed-size and generic gather paths, with a scratch that
// is reused (and so shrinks and grows) across every case.
func TestRadixSortMatchesReference(t *testing.T) {
	var scratch SortScratch
	for name, keys := range adversarialKeys() {
		for _, recSz := range []int{4, 8, 12, 13} {
			t.Run(fmt.Sprintf("%s/rec%d", name, recSz), func(t *testing.T) {
				got, key := keyedChunk(keys, recSz)
				want := bytes.Clone(got)
				SortRecords(got, recSz, key, &scratch)
				refSortByKey(want, recSz, key)
				if !bytes.Equal(got, want) {
					t.Fatalf("radix sort differs from the reference over %d records", len(keys))
				}
			})
		}
	}
}

// TestRadixSortNilScratch: a nil scratch sorts with fresh buffers.
func TestRadixSortNilScratch(t *testing.T) {
	keys := adversarialKeys()["random-64"]
	got, key := keyedChunk(keys, 8)
	want := bytes.Clone(got)
	SortRecords(got, 8, key, nil)
	refSortByKey(want, 8, key)
	if !bytes.Equal(got, want) {
		t.Fatal("nil-scratch sort differs from the reference")
	}
}

// TestChunkRecordsClamp: the run-formation chunk holds at least one
// record and never more than math.MaxInt32, the limit of the sort's
// record indices, however large the budget.
func TestChunkRecordsClamp(t *testing.T) {
	for _, c := range []struct {
		budget int64
		recSz  int
		want   int
	}{
		{0, 8, 1},
		{7, 8, 1},
		{100, 8, 12},
		{MinMemoryBudget, 12, MinMemoryBudget / 12},
		{int64(math.MaxInt32) * 8, 8, math.MaxInt32},
		{int64(math.MaxInt32)*8 + 8, 8, math.MaxInt32},
		{17 << 30, 8, math.MaxInt32}, // the graphz-convert -mem case
		{math.MaxInt64, 1, math.MaxInt32},
	} {
		if got := chunkRecords(c.budget, c.recSz); got != c.want {
			t.Errorf("chunkRecords(%d, %d) = %d, want %d", c.budget, c.recSz, got, c.want)
		}
	}
}

// TestSortRecordsWarmScratchAllocs: once the scratch has grown to the
// chunk size, sorting a chunk allocates nothing.
func TestSortRecordsWarmScratchAllocs(t *testing.T) {
	keys := adversarialKeys()["random-64"]
	for _, recSz := range []int{8, 12, 13} {
		orig, key := keyedChunk(keys, recSz)
		chunk := bytes.Clone(orig)
		var scratch SortScratch
		SortRecords(chunk, recSz, key, &scratch)
		allocs := testing.AllocsPerRun(20, func() {
			copy(chunk, orig)
			SortRecords(chunk, recSz, key, &scratch)
		})
		if allocs != 0 {
			t.Errorf("record size %d: %v allocations per warm sort, want 0", recSz, allocs)
		}
	}
}

// BenchmarkSortChunk times SortRecords on one warm scratch over the key
// shapes of the preprocessing sorts: 32-bit keys of 8-byte records (id
// maps, destination sorts), degree-complemented triad keys of 12-byte
// records, and full 64-bit keys.
func BenchmarkSortChunk(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name  string
		recSz int
		key   func(i int) uint64
	}{
		{"u32", 8, func(int) uint64 { return rng.Uint64() & 0x1ffff }},
		{"triad", 12, func(int) uint64 { return uint64(^uint32(rng.Uint64()%2000))<<32 | rng.Uint64()&0x1ffff }},
		{"u64", 8, func(int) uint64 { return rng.Uint64() }},
	} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = c.key(i)
		}
		orig, key := keyedChunk(keys, c.recSz)
		chunk := bytes.Clone(orig)
		b.Run(c.name, func(b *testing.B) {
			var scratch SortScratch
			b.SetBytes(int64(len(chunk)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(chunk, orig)
				SortRecords(chunk, c.recSz, key, &scratch)
			}
		})
	}
}
