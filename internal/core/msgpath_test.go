package core

import (
	"encoding/binary"
	"runtime"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
)

// Regression tests for the message-path fixes: the spill-buffer capacity
// clamp in bufferMessage and the bounded streaming drain.

// TestBufferMessageRecordLargerThanBuffer: bufferMessage used to
// allocate the destination buffer with exactly MsgBufferBytes capacity
// and then re-slice it by one record, so a record larger than the
// configured buffer panicked with a slice-bounds violation. New clamps
// MsgBufferBytes high enough that the public API cannot reach that
// state, so this test drops the option below one record after
// construction — what a refactor that loses the distant clamp would do —
// and requires each oversized record to be spilled whole instead.
func TestBufferMessageRecordLargerThanBuffer(t *testing.T) {
	g := buildDOS(t, gen.RMAT(7, 400, gen.NaturalRMAT, 50))
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 64 << 20, DynamicMessages: true, MsgBufferBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Stand in for Run's per-run setup, then shrink the buffer below
	// one 8-byte record.
	eng.msgBufs = make([][]byte, eng.NumPartitions())
	for p := 0; p < eng.NumPartitions(); p++ {
		if _, err := eng.dev.Create(eng.msgFile(p)); err != nil {
			t.Fatal(err)
		}
	}
	eng.opts.MsgBufferBytes = 4

	const n = 5
	for i := 0; i < n; i++ {
		eng.bufferMessage(graph.VertexID(i), uint32(100+i))
	}
	if eng.runErr != nil {
		t.Fatal(eng.runErr)
	}
	// Every record was bigger than the buffer, so each must have been
	// spilled immediately and in order.
	if eng.spilled != n {
		t.Errorf("spilled = %d, want %d", eng.spilled, n)
	}
	p := eng.partitionOf(0)
	sz, err := eng.dev.Size(eng.msgFile(p))
	if err != nil {
		t.Fatal(err)
	}
	rec := int64(4 + eng.msize)
	if sz != n*rec {
		t.Fatalf("message file holds %d bytes, want %d", sz, n*rec)
	}
	data := make([]byte, sz)
	f, err := eng.dev.Open(eng.msgFile(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dst := binary.LittleEndian.Uint32(data[int64(i)*rec:])
		m := binary.LittleEndian.Uint32(data[int64(i)*rec+4:])
		if dst != uint32(i) || m != uint32(100+i) {
			t.Errorf("record %d = (dst %d, m %d), want (%d, %d)", i, dst, m, i, 100+i)
		}
	}
}

// TestDrainBoundedMemory: the spill file holds a full iteration's
// cross-partition traffic and is not covered by the memory budget, so a
// drain that read it into one allocation would blow straight past the
// budget (an earlier parallel drain did). The drain must stream:
// draining a spill file much larger than the budget's share may not
// allocate anywhere near the file size.
func TestDrainBoundedMemory(t *testing.T) {
	g := buildDOS(t, gen.RMAT(7, 400, gen.NaturalRMAT, 51))
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 64 << 20, DynamicMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	nv := uint32(g.NumVertices)
	eng.verts = make([]minVal, nv)
	for i := range eng.verts {
		eng.verts[i] = minVal{label: uint32(i), pending: uint32(i)}
	}
	eng.msgBufs = make([][]byte, eng.NumPartitions())
	if _, err := eng.dev.Create(eng.msgFile(0)); err != nil {
		t.Fatal(err)
	}

	// Build a 16 MiB spill file of valid records and track the expected
	// per-vertex minimum.
	const fileBytes = 16 << 20
	rec := 4 + eng.msize
	want := make([]uint32, nv)
	for i := range want {
		want[i] = uint32(i)
	}
	f, err := eng.dev.Open(eng.msgFile(0))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]byte, 0, 256<<10)
	x := uint32(12345)
	for written := 0; written < fileBytes; {
		batch = batch[:0]
		for len(batch) < cap(batch) && written+len(batch) < fileBytes {
			x = x*1664525 + 1013904223
			dst := x % nv
			m := (x >> 8) % nv
			var r [8]byte
			binary.LittleEndian.PutUint32(r[:], dst)
			binary.LittleEndian.PutUint32(r[4:], m)
			batch = append(batch, r[:]...)
			if m < want[dst] {
				want[dst] = m
			}
		}
		if _, err := f.Append(batch); err != nil {
			t.Fatal(err)
		}
		written += len(batch)
	}
	total := int64(fileBytes / rec)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > fileBytes/2 {
		t.Errorf("drain allocated %d bytes for a %d-byte spill file; want bounded streaming", alloc, fileBytes)
	}
	if eng.applied != total {
		t.Errorf("applied = %d, want %d", eng.applied, total)
	}
	if sz, _ := eng.dev.Size(eng.msgFile(0)); sz != 0 {
		t.Errorf("spill file not truncated: %d bytes", sz)
	}
	for i, v := range eng.verts {
		if v.pending != want[i] {
			t.Fatalf("vertex %d pending = %d, want %d", i, v.pending, want[i])
		}
	}
}

// TestDrainMemoryTail: the in-memory buffer tail (records that never
// spilled) must still be applied after the streamed file.
func TestDrainMemoryTail(t *testing.T) {
	g := buildDOS(t, gen.RMAT(6, 200, gen.NaturalRMAT, 52))
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 64 << 20, DynamicMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.verts = make([]minVal, g.NumVertices)
	for i := range eng.verts {
		eng.verts[i] = minVal{label: uint32(i), pending: uint32(i)}
	}
	eng.msgBufs = make([][]byte, eng.NumPartitions())
	if _, err := eng.dev.Create(eng.msgFile(0)); err != nil {
		t.Fatal(err)
	}
	eng.bufferMessage(3, 0)
	eng.bufferMessage(5, 1)
	if err := eng.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
	if eng.verts[3].pending != 0 || eng.verts[5].pending != 1 {
		t.Errorf("memory-tail messages not applied: verts[3]=%+v verts[5]=%+v", eng.verts[3], eng.verts[5])
	}
	if eng.applied != 2 {
		t.Errorf("applied = %d, want 2", eng.applied)
	}
	if len(eng.msgBufs[0]) != 0 {
		t.Errorf("message buffer not cleared: %d bytes", len(eng.msgBufs[0]))
	}
}
