package extsort

import "math"

// Keyed chunk sort: a stable least-significant-digit radix sort over the
// records' uint64 keys, 8 bits per pass. Stability comes from the
// counting scatter itself (equal digits keep their relative order), so
// no index tie-break is needed. Digits that are constant across the
// chunk are skipped: the preprocessing keys are 32-bit or carry a
// complemented degree in the high word, so most chunks need 3 to 5
// passes rather than 8.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixDigits  = 64 / radixBits
)

// SortScratch holds the reusable buffers of the keyed chunk sort: two
// key/index ping-pong arrays and the record permutation buffer. The zero
// value is ready to use. The buffers grow to the largest chunk sorted
// and are reused afterwards, so a caller that sorts many chunks
// allocates once. A SortScratch must not be used by two sorts at once.
type SortScratch struct {
	keys, keysAlt []uint64
	idx, idxAlt   []uint32
	perm          []byte
}

// grow sizes the scratch for n records of recSz bytes.
func (s *SortScratch) grow(n, recSz int) {
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.keysAlt = make([]uint64, n)
		s.idx = make([]uint32, n)
		s.idxAlt = make([]uint32, n)
	}
	if cap(s.perm) < n*recSz {
		s.perm = make([]byte, n*recSz)
	}
}

// chunkRecords returns how many records of recSz bytes one run-formation
// chunk holds under budget bytes: at least one, and at most
// math.MaxInt32, so the sort's record indices cannot wrap however large
// the budget.
func chunkRecords(budget int64, recSz int) int {
	n := budget / int64(recSz)
	if n < 1 {
		n = 1
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	return int(n)
}

// SortRecords stably sorts chunk's fixed-size records in place by their
// uint64 keys (ascending), using s for its buffers; a nil s allocates
// fresh ones. The chunk may hold at most math.MaxInt32 records.
func SortRecords(chunk []byte, recSz int, key func([]byte) uint64, s *SortScratch) {
	n := len(chunk) / recSz
	if n < 2 {
		return
	}
	if s == nil {
		s = &SortScratch{}
	}
	s.grow(n, recSz)
	keys, keysAlt := s.keys[:n], s.keysAlt[:n]
	idx, idxAlt := s.idx[:n], s.idxAlt[:n]

	// One pass extracts the keys and finds the digits that vary.
	or, and := uint64(0), ^uint64(0)
	for i := range keys {
		k := key(chunk[i*recSz : (i+1)*recSz])
		keys[i] = k
		idx[i] = uint32(i)
		or |= k
		and &= k
	}
	varying := or ^ and
	var shifts [radixDigits]uint
	nd := 0
	for sh := uint(0); sh < 64; sh += radixBits {
		if (varying>>sh)&(radixBuckets-1) != 0 {
			shifts[nd] = sh
			nd++
		}
	}
	if nd == 0 {
		return // all keys equal: the input order is the stable order
	}

	// Counting-scatter passes, least significant varying digit first.
	// Each pass also counts the next pass's digit (counts do not depend
	// on order), so only the first digit needs a counting pass of its
	// own.
	var count, next [radixBuckets]uint32
	for _, k := range keys {
		count[byte(k>>shifts[0])]++
	}
	for d := 0; d < nd; d++ {
		sh := shifts[d]
		var sum uint32
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		if d == nd-1 {
			// The final pass needs only the permutation.
			for i, k := range keys {
				b := byte(k >> sh)
				idxAlt[count[b]] = idx[i]
				count[b]++
			}
			idx = idxAlt
			break
		}
		next = [radixBuckets]uint32{}
		nsh := shifts[d+1]
		for i, k := range keys {
			b := byte(k >> sh)
			p := count[b]
			keysAlt[p] = k
			idxAlt[p] = idx[i]
			count[b]++
			next[byte(k>>nsh)]++
		}
		count = next
		keys, keysAlt = keysAlt, keys
		idx, idxAlt = idxAlt, idx
	}

	perm := s.perm[:len(chunk)]
	gather(perm, chunk, idx, recSz)
	copy(chunk, perm)
}

// gather writes chunk's records into dst in idx order, with fixed-size
// moves for the record sizes the preprocessing and spill paths use.
func gather(dst, chunk []byte, idx []uint32, recSz int) {
	switch recSz {
	case 8:
		for i, j := range idx {
			*(*[8]byte)(dst[i*8:]) = *(*[8]byte)(chunk[int(j)*8:])
		}
	case 12:
		for i, j := range idx {
			*(*[12]byte)(dst[i*12:]) = *(*[12]byte)(chunk[int(j)*12:])
		}
	default:
		for i, j := range idx {
			src := int(j) * recSz
			copy(dst[i*recSz:(i+1)*recSz], chunk[src:src+recSz])
		}
	}
}
