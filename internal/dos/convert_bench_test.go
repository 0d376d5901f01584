package dos

import (
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// BenchmarkConvert times dos.Convert of a 256Ki-edge R-MAT graph under a
// 1 MiB sort budget (a few runs per external sort), to the v1 format and
// to DOS v2 with the group-varint codec. Each op first removes the
// previous op's output, so it allocates like a first conversion.
func BenchmarkConvert(b *testing.B) {
	edges := gen.RMAT(15, 256<<10, gen.NaturalRMAT, 7)
	for _, c := range []struct {
		name  string
		codec storage.Codec
	}{{"v1", nil}, {"groupvarint", storage.CodecGroupVarint}} {
		b.Run(c.name, func(b *testing.B) {
			dev := storage.NewDevice(storage.NullDevice, storage.Options{})
			if err := graph.WriteEdges(dev, "raw", edges); err != nil {
				b.Fatal(err)
			}
			cfg := ConvertConfig{Dev: dev, MemoryBudget: 1 << 20, Codec: c.codec}
			b.SetBytes(int64(len(edges)) * graph.EdgeBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, suffix := range []string{suffixEdges, suffixMeta, suffixNew2Old, suffixOld2New} {
					dev.Remove("g" + suffix)
				}
				if _, err := Convert(cfg, "raw", "g"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
