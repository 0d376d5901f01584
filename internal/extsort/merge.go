package extsort

// Streaming k-way merge over already-sorted record sources: the loser
// tree behind Sort's merge passes.

import (
	"fmt"
	"io"
	"math"

	"graphz/internal/storage"
)

// Source yields the records of one sorted run. ReadRecord fills rec with
// the next record, returning io.EOF (and only io.EOF) once the run is
// exhausted.
type Source interface {
	ReadRecord(rec []byte) error
}

// readerSource adapts a storage stream (whole-file or range) to a Source.
type readerSource struct{ r *storage.Reader }

func (s readerSource) ReadRecord(rec []byte) error { return s.r.ReadFull(rec) }

// NewReaderSource wraps a storage.Reader as a merge Source. The reader's
// range must hold a whole number of records.
func NewReaderSource(r *storage.Reader) Source { return readerSource{r} }

// MergeConfig configures a streaming Merger.
type MergeConfig struct {
	// RecordSize is the fixed record length in bytes.
	RecordSize int
	// Less compares two records. Ignored when Key is set.
	Less func(a, b []byte) bool
	// Key, when non-nil, maps a record to its uint64 sort key.
	Key func(rec []byte) uint64
}

// Merger streams the k-way merge of its sources, one record per Next call.
//
// The merge is a loser tree over the non-empty sources: tree[0] holds
// the index of the current winner and tree[1:] the loser of each
// internal match, with source i's leaf at node k+i. Replacing the
// winner's record replays only its leaf-to-root path, one comparison per
// level. Records are ordered by (key, source index), so on equal keys
// the earlier source wins; a finished source sorts after every live one.
type Merger struct {
	srcs  []Source
	ords  []int    // caller-side index of each source, for error messages
	cur   []byte   // current record of source i at cur[i*recSz:]
	keys  []uint64 // cached Key(cur) per source; math.MaxUint64 once done
	done  []bool
	tree  []int
	recSz int
	less  func(a, b []byte) bool
	key   func([]byte) uint64
	out   []byte
}

// NewMerger primes the sources and builds the loser tree. Empty sources
// are allowed (they contribute nothing). Source order is the stability
// tie-break: on equal keys, records from earlier sources win.
func NewMerger(cfg MergeConfig, srcs []Source) (*Merger, error) {
	if cfg.RecordSize <= 0 {
		return nil, fmt.Errorf("extsort: record size %d must be positive", cfg.RecordSize)
	}
	if cfg.Less == nil && cfg.Key == nil {
		return nil, fmt.Errorf("extsort: a Less or Key function is required")
	}
	recSz := cfg.RecordSize
	m := &Merger{
		recSz: recSz,
		less:  cfg.Less,
		key:   cfg.Key,
		cur:   make([]byte, len(srcs)*recSz),
		out:   make([]byte, recSz),
	}
	for ord, s := range srcs {
		rec := m.cur[len(m.srcs)*recSz : (len(m.srcs)+1)*recSz]
		if err := s.ReadRecord(rec); err != nil {
			if err == io.EOF {
				continue // empty source
			}
			return nil, fmt.Errorf("extsort: priming merge source %d: %w", ord, err)
		}
		var k uint64
		if m.key != nil {
			k = m.key(rec)
		}
		m.srcs = append(m.srcs, s)
		m.ords = append(m.ords, ord)
		m.keys = append(m.keys, k)
	}
	n := len(m.srcs)
	m.done = make([]bool, n)
	m.tree = make([]int, max(n, 1))
	if n > 1 {
		// Play the initial tournament bottom-up: winners[j] is the
		// winner below node j, leaves at n..2n-1.
		winners := make([]int, 2*n)
		for i := 0; i < n; i++ {
			winners[n+i] = i
		}
		for j := n - 1; j >= 1; j-- {
			l, r := winners[2*j], winners[2*j+1]
			if m.beats(r, l) {
				l, r = r, l
			}
			winners[j], m.tree[j] = l, r
		}
		m.tree[0] = winners[1]
	}
	return m, nil
}

// rec returns source i's current record.
func (m *Merger) rec(i int) []byte { return m.cur[i*m.recSz : (i+1)*m.recSz] }

// beats reports whether source a's current record is merged before
// source b's.
func (m *Merger) beats(a, b int) bool {
	if m.key != nil {
		if ka, kb := m.keys[a], m.keys[b]; ka != kb {
			return ka < kb
		}
	} else if !m.done[a] && !m.done[b] {
		ra, rb := m.rec(a), m.rec(b)
		if m.less(ra, rb) {
			return true
		}
		if m.less(rb, ra) {
			return false
		}
	}
	if da, db := m.done[a], m.done[b]; da != db {
		return db
	}
	return a < b
}

// replay re-runs the matches on source w's leaf-to-root path after its
// record changed, leaving the overall winner in tree[0].
func (m *Merger) replay(w int) {
	for j := (w + len(m.srcs)) >> 1; j > 0; j >>= 1 {
		if l := m.tree[j]; m.beats(l, w) {
			m.tree[j], w = w, l
		}
	}
	m.tree[0] = w
}

// Next returns the next merged record, valid until the following call.
// io.EOF signals a completed merge.
func (m *Merger) Next() ([]byte, error) {
	if len(m.srcs) == 0 {
		return nil, io.EOF
	}
	w := m.tree[0]
	if m.done[w] {
		return nil, io.EOF
	}
	copy(m.out, m.rec(w))
	if err := m.advance(w); err != nil {
		return nil, err
	}
	return m.out, nil
}

// advance replaces source i's record with its next one, marking the
// source done at EOF, and replays its path.
func (m *Merger) advance(i int) error {
	rec := m.rec(i)
	switch err := m.srcs[i].ReadRecord(rec); err {
	case nil:
		if m.key != nil {
			m.keys[i] = m.key(rec)
		}
	case io.EOF:
		m.done[i] = true
		m.keys[i] = math.MaxUint64
	default:
		return fmt.Errorf("extsort: advancing merge source %d: %w", m.ords[i], err)
	}
	m.replay(i)
	return nil
}
