package dos

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"graphz/internal/extsort"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// refSortFile is the reference external sort for the conversion
// differential: the whole file is read into memory and stably sorted by
// key with a comparison sort, so equal keys keep their input order, the
// order extsort.Sort guarantees.
func refSortFile(cfg extsort.Config, input, output string) error {
	data, err := storage.ReadAllFile(cfg.Dev, input)
	if err != nil {
		return err
	}
	recSz := cfg.RecordSize
	n := len(data) / recSz
	rec := func(i int) []byte { return data[i*recSz : (i+1)*recSz] }
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cfg.Key(rec(idx[a])) < cfg.Key(rec(idx[b])) })
	out := make([]byte, 0, len(data))
	for _, i := range idx {
		out = append(out, rec(i)...)
	}
	if cfg.RemoveInput {
		cfg.Dev.Remove(input)
	}
	return storage.WriteAll(cfg.Dev, output, out)
}

// convertFiles converts edges under the given sort and returns the
// contents of every file the conversion leaves on the device.
func convertFiles(t *testing.T, sorter func(extsort.Config, string, string) error, edges []graph.Edge, codec storage.Codec) map[string][]byte {
	t.Helper()
	old := sortFile
	sortFile = sorter
	defer func() { sortFile = old }()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	// The minimum budget forms 13 to 19 runs per sort, so the radix
	// chunk sort and multi-pass loser-tree merges both run.
	cfg := ConvertConfig{Dev: dev, MemoryBudget: extsort.MinMemoryBudget, Codec: codec, RemoveInput: true}
	if _, err := Convert(cfg, "raw", "g"); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range dev.List() {
		data, err := storage.ReadAllFile(dev, name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return files
}

// TestConvertMatchesReferenceSort: v1, varint and group-varint
// conversions through extsort.Sort leave byte-identical edges, meta and
// id-map files to conversions through an in-memory stable sort, on two
// seeds and on both triad-building paths.
func TestConvertMatchesReferenceSort(t *testing.T) {
	codecs := []storage.Codec{nil, storage.CodecVarint, storage.CodecGroupVarint}
	for _, seed := range []uint64{21, 22} {
		edges := gen.RMAT(13, 100_000, gen.NaturalRMAT, seed)
		for _, codec := range codecs {
			for _, sortedTriads := range []bool{false, true} {
				name := "v1"
				if codec != nil {
					name = codec.Name()
				}
				t.Run(fmt.Sprintf("seed%d/%s/sortedTriads=%v", seed, name, sortedTriads), func(t *testing.T) {
					if sortedTriads {
						old := hostDegreeCapIDs
						hostDegreeCapIDs = 4 // force the sort-by-source fallback
						defer func() { hostDegreeCapIDs = old }()
					}
					want := convertFiles(t, refSortFile, edges, codec)
					got := convertFiles(t, extsort.Sort, edges, codec)
					if len(got) != 4 || len(want) != 4 {
						t.Fatalf("conversion left %d files, reference %d; want 4 each", len(got), len(want))
					}
					for name, w := range want {
						if !bytes.Equal(got[name], w) {
							t.Errorf("%s: %d bytes differ from the reference sort's %d", name, len(got[name]), len(w))
						}
					}
				})
			}
		}
	}
}
