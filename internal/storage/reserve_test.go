package storage

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestReserveLeavesAccountingUnchanged: Reserve is a host-memory hint,
// so the file's size, the device's Stats, FileStats and Used are the
// same before and after it, and later writes charge exactly as they
// would without it.
func TestReserveLeavesAccountingUnchanged(t *testing.T) {
	write := func(reserve bool) (*Device, *File) {
		dev := NewDevice(SSD, Options{PageCacheBytes: 4 * PageBytes})
		f, err := dev.Create("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("head"), 0); err != nil {
			t.Fatal(err)
		}
		if reserve {
			before := [...]any{f.Size(), dev.Stats(), dev.FileStats(), dev.Used()}
			f.Reserve(1 << 16)
			f.Reserve(16) // smaller than the capacity: a no-op
			after := [...]any{f.Size(), dev.Stats(), dev.FileStats(), dev.Used()}
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("Reserve changed accounting:\nbefore %v\nafter  %v", before, after)
			}
		}
		w := NewWriter(f)
		if _, err := w.Write(bytes.Repeat([]byte{7}, 3*DefaultBlockSize/2)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(make([]byte, 100), 0); err != nil {
			t.Fatal(err)
		}
		return dev, f
	}
	plain, pf := write(false)
	reserved, rf := write(true)
	if pf.Size() != rf.Size() || plain.Used() != reserved.Used() {
		t.Fatalf("size/used %d/%d with Reserve, %d/%d without", rf.Size(), reserved.Used(), pf.Size(), plain.Used())
	}
	if plain.Stats() != reserved.Stats() {
		t.Fatalf("stats %v with Reserve, %v without", reserved.Stats(), plain.Stats())
	}
	if !reflect.DeepEqual(plain.FileStats(), reserved.FileStats()) {
		t.Fatalf("file stats %v with Reserve, %v without", reserved.FileStats(), plain.FileStats())
	}
}

// TestReserveKeepsFaultSchedule: Reserve is not a device operation, so
// an armed fault plan counts and fires at the same operations with or
// without it.
func TestReserveKeepsFaultSchedule(t *testing.T) {
	fd := NewFaultDevice(NullDevice, Options{})
	f, err := fd.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	fd.Arm(FaultPlan{CrashAtOp: 3})
	f.Reserve(64)
	if _, err := f.WriteAt([]byte("one"), 0); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	f.Reserve(128)
	if _, err := f.WriteAt([]byte("two"), 3); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if fd.Ops() != 2 {
		t.Fatalf("ops = %d after two writes and two reserves, want 2", fd.Ops())
	}
	if _, err := f.WriteAt([]byte("x"), 6); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 3 = %v, want ErrCrashed", err)
	}
	f.Reserve(256) // still no error, no op, on a crashed device
	if fd.Ops() != 3 {
		t.Fatalf("ops = %d, want 3", fd.Ops())
	}
	fd.Disarm()
	got := make([]byte, 6)
	if n, _ := f.ReadAt(got, 0); n != 6 || string(got) != "onetwo" {
		t.Fatalf("after reboot read %q (%d bytes), want %q", got[:n], n, "onetwo")
	}
}

// TestReserveGapAfterRecreateReadsZeros: Create truncates a reserved
// file but keeps its capacity, which still holds the old bytes; a write
// past the new end must zero-fill the gap rather than expose them.
func TestReserveGapAfterRecreateReadsZeros(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, err := dev.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Reserve(64)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 32), 0); err != nil {
		t.Fatal(err)
	}
	f, err = dev.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Reserve(64)
	if _, err := f.WriteAt([]byte{9}, 20); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 21)
	if n, _ := f.ReadAt(got, 0); n != 21 {
		t.Fatalf("read %d bytes, want 21", n)
	}
	want := append(make([]byte, 20), 9)
	if !bytes.Equal(got, want) {
		t.Fatalf("gap after re-create = %v, want zeros then 9", got)
	}
	if dev.Used() != 21 {
		t.Fatalf("used = %d, want 21", dev.Used())
	}
}

// TestReserveClampedToCapacity: on a device with a capacity, Reserve
// grows the backing slice no further than the file could grow, and a
// write past the capacity still fails with ErrNoSpace.
func TestReserveClampedToCapacity(t *testing.T) {
	dev := NewDevice(NullDevice, Options{Capacity: 100})
	other, _ := dev.Create("other")
	if _, err := other.WriteAt(make([]byte, 40), 0); err != nil {
		t.Fatal(err)
	}
	f, _ := dev.Create("a")
	if _, err := f.WriteAt(make([]byte, 10), 0); err != nil {
		t.Fatal(err)
	}
	f.Reserve(1 << 30)
	if c := cap(f.f.data); c > 60 {
		t.Fatalf("reserved capacity %d, want at most 60 (10 written + 50 free)", c)
	}
	if _, err := f.WriteAt(make([]byte, 51), 10); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write past capacity = %v, want ErrNoSpace", err)
	}
	if _, err := f.WriteAt(make([]byte, 50), 10); err != nil {
		t.Fatalf("write up to capacity: %v", err)
	}
}
