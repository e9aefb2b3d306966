// segment.go: the immutable PCSEG02 segment file — columnar encoding,
// CRC-rooted load-time verification, PCSEG01 read support, and the
// per-segment candidate stage in front of the shared identify engine.
package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/samplefile"
)

// Segment file format PCSEG02 — one immutable flush of the memtable.
//
//	header   (44 B): magic "PCSEG02\n", version 2, nbits, blockEntries
//	                 (B ≤ 64), LSH scheme (bands, rows, probes, seed),
//	                 header CRC; writers write probes as 0
//	entry log       : per-entry records [u32 len | u32 crc32(payload) | payload],
//	                 payload = u64 id, u32 nPos, nPos×u32 positions,
//	                 u16 nameLen, name — the durable truth, salvageable
//	                 record by record like a WAL segment
//	columnar        : 8-aligned accelerator sections served straight from the
//	                 mmap — ids, u32 cardinalities, name table, name-sorted
//	                 permutation, the position-major fingerprint matrix
//	                 (nbits rows of one word per B-entry block; see
//	                 bitset.PackSlicedMatrix), and the sorted
//	                 (LSH band key, entry) pairs
//	footer   (56 B): magic "PCSEGFTR", logEnd, colStart, id range, counts,
//	                 columnar CRC, footer CRC
//
// The footer is the integrity root: Load trusts the columnar sections only
// after the footer and columnar CRCs check out, and still walks the entry
// log's record CRCs so interior corruption is refused with its offset
// (CorruptError) rather than served. A file with no valid footer is treated
// as torn: the longest valid prefix of log records is salvaged into
// heap-backed sections and the tail is ignored — the same
// truncate-vs-refuse split the WAL's fuzz contract pins.
//
// PCSEG01 (magic "PCSEG01\n", version 1) has the same header, log and
// footer; only its block section differs (band-major blocks with OR-union
// words). A PCSEG02 file whose header's probes word is 1 holds multi-probe
// keys (Bands·(1+Rows) an entry) in its key section, which no query uses
// any more. Load still reads both, but never those sections: once the
// footer, the columnar CRC and every record check out, the columnar
// sections are rebuilt in heap from the log with band keys, and the tiered
// engine rewrites the file as a band-key PCSEG02 when it opens the store.

const (
	segMagic     = "PCSEG02\n"
	segMagicV1   = "PCSEG01\n"
	segFtrMagic  = "PCSEGFTR"
	segVersion   = 2
	segVersionV1 = 1
	headerSize   = 44
	footerSize   = 56
	recHdrSize   = 8 // u32 len + u32 crc
)

// CorruptError reports interior segment corruption: a record whose checksum
// fails inside the region the committed footer covers, at Offset bytes into
// the file. Torn tails (no valid footer) are salvaged, not refused; see the
// package comment in this file.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: segment %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// colData is the in-memory form of the columnar sections — what the writer
// serializes, what a torn-tail salvage rebuilds, and what a footer-backed
// Load views straight off the mapping.
type colData struct {
	ids      []uint64
	cards    []uint32
	nameOffs []uint32 // count+1 offsets into nameBlob
	nameBlob []byte
	perm     []uint32 // entry positions sorted by (name, position)
	matrix   []uint64 // position-major fingerprint matrix
	lshKeys  []uint64 // sorted, parallel to lshIdx
	lshIdx   []uint32
}

// entryKeys returns the LSH band keys a fingerprint is indexed under: the
// keys a query holding the same set looks up, so both sides use one key set.
func entryKeys(scheme minhash.Scheme, fp *bitset.Set) []uint64 {
	return fingerprint.NewQuery(fp, scheme).Keys(scheme)
}

// signPairs appends the LSH pairs of entries, numbered from base, by signing
// each one. It serves only sources that hold no keys under the target
// scheme: the rebuild of a salvaged, PCSEG01 or multi-probe segment, and a
// compaction source written under another scheme. Every other segment is
// written from the keys its source already holds.
func signPairs(dst []fingerprint.KeyPos, entries []fingerprint.IDEntry, base int, scheme minhash.Scheme) []fingerprint.KeyPos {
	for i, e := range entries {
		for _, k := range entryKeys(scheme, e.FP) {
			dst = append(dst, fingerprint.KeyPos{Key: k, Pos: uint32(base + i)})
		}
	}
	return dst
}

// buildColumnar packs entries (ascending ids, one shared bit length) into
// columnar form, with pairs — the entries' LSH (key, position) pairs in any
// order — sorted into the key section.
func buildColumnar(entries []fingerprint.IDEntry, pairs []fingerprint.KeyPos, nbits, blockEntries int) *colData {
	n := len(entries)
	c := &colData{
		ids:      make([]uint64, n),
		cards:    make([]uint32, n),
		nameOffs: make([]uint32, n+1),
		perm:     make([]uint32, n),
	}
	fps := make([]*bitset.Set, n)
	for i, e := range entries {
		c.ids[i] = uint64(e.ID)
		c.cards[i] = uint32(e.FP.Count())
		c.nameBlob = append(c.nameBlob, e.Name...)
		c.nameOffs[i+1] = uint32(len(c.nameBlob))
		c.perm[i] = uint32(i)
		fps[i] = e.FP
	}
	slices.SortFunc(c.perm, func(a, b uint32) int {
		if o := strings.Compare(entries[a].Name, entries[b].Name); o != 0 {
			return o
		}
		return cmp.Compare(a, b)
	})
	c.lshKeys = make([]uint64, len(pairs))
	c.lshIdx = make([]uint32, len(pairs))
	for i, p := range sortPairs(pairs) {
		c.lshKeys[i], c.lshIdx[i] = p.Key, p.Pos
	}
	c.matrix = bitset.PackSlicedMatrix(nbits, blockEntries, fps)
	return c
}

// sortPairs returns pairs sorted by (Key, Pos), in a new slice. The keys
// are hashes, near-uniform over 64 bits, so one counting pass on their top
// bits (one bucket per four to eight pairs, at most 2^16 buckets) scatters
// the pairs into small buckets. An insertion sort finishes a bucket of up
// to 16 pairs; slices.SortFunc finishes a longer one, which many entries
// sharing a key (empty fingerprints) or over 2^20 pairs produce.
func sortPairs(pairs []fingerprint.KeyPos) []fingerprint.KeyPos {
	shift := 64 - min(max(bits.Len(uint(len(pairs)))-2, 1), 16)
	start := make([]int, 1<<(64-shift)+1) // bucket d holds out[start[d]:start[d+1]]
	for _, p := range pairs {
		start[p.Key>>shift+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	out := make([]fingerprint.KeyPos, len(pairs))
	next := slices.Clone(start)
	for _, p := range pairs {
		d := p.Key >> shift
		out[next[d]] = p
		next[d]++
	}
	order := func(a, b fingerprint.KeyPos) int {
		if o := cmp.Compare(a.Key, b.Key); o != 0 {
			return o
		}
		return cmp.Compare(a.Pos, b.Pos)
	}
	for d := 0; d+1 < len(start); d++ {
		bucket := out[start[d]:start[d+1]]
		if len(bucket) > 16 {
			slices.SortFunc(bucket, order)
			continue
		}
		for i := 1; i < len(bucket); i++ {
			for j := i; j > 0 && order(bucket[j], bucket[j-1]) < 0; j-- {
				bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
			}
		}
	}
	return out
}

// checkKeys checks a key section's shape against its segment: perEntry keys
// for each of count entries, sorted by (key, position) with every position
// in range — what candidates' binary search assumes. It returns the index of
// the first bad pair (len(keys) for a bad count) and why, or -1.
func checkKeys(keys []uint64, idx []uint32, count, perEntry int) (int, string) {
	if len(keys) != count*perEntry {
		return len(keys), fmt.Sprintf("%d keys for %d entries of %d keys each", len(keys), count, perEntry)
	}
	for i := range keys {
		if int(idx[i]) >= count {
			return i, fmt.Sprintf("pair %d names entry %d of %d", i, idx[i], count)
		}
		if i > 0 && (keys[i] < keys[i-1] || keys[i] == keys[i-1] && idx[i] < idx[i-1]) {
			return i, fmt.Sprintf("pair %d is out of (key, entry) order", i)
		}
	}
	return -1, ""
}

func (c *colData) name(pos int) string {
	return string(c.nameBlob[c.nameOffs[pos]:c.nameOffs[pos+1]])
}

// WriteSegment writes entries (ascending add-order ids, one shared bit
// length) as a PCSEG02 segment at path, atomically (temp-fsync-rename), in
// blocks of bitset.DefaultSlicedEntries. pairs are the entries' LSH (band
// key, position) pairs under scheme, in any order: WriteSegment sorts them
// and never signs, so a caller passes the keys its source already holds
// (signPairs' for a source that holds none). A key count that does not
// match the entries is refused.
func WriteSegment(path string, entries []fingerprint.IDEntry, pairs []fingerprint.KeyPos, scheme minhash.Scheme) error {
	if len(entries) == 0 {
		return fmt.Errorf("store: refusing to write empty segment %s", path)
	}
	const blockEntries = bitset.DefaultSlicedEntries
	nbits := entries[0].FP.Len()
	for _, e := range entries {
		if e.FP.Len() != nbits {
			return fmt.Errorf("store: segment needs one bit length, have %d and %d", nbits, e.FP.Len())
		}
	}
	col := buildColumnar(entries, pairs, nbits, blockEntries)
	if i, why := checkKeys(col.lshKeys, col.lshIdx, len(entries), scheme.Bands); i >= 0 {
		return fmt.Errorf("store: segment %s: LSH key section: %s", path, why)
	}
	return writeColumnar(path, entries, col, scheme, nbits, blockEntries)
}

// writeColumnar writes an already-built segment atomically, through one
// buffer flushed before WriteAtomic's fsync.
func writeColumnar(path string, entries []fingerprint.IDEntry, col *colData, scheme minhash.Scheme, nbits, blockEntries int) error {
	return samplefile.WriteAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if err := writeSegmentTo(bw, entries, col, scheme, nbits, blockEntries); err != nil {
			return err
		}
		return bw.Flush()
	})
}

func writeSegmentTo(w io.Writer, entries []fingerprint.IDEntry, col *colData, scheme minhash.Scheme, nbits, blockEntries int) error {
	bw := &countWriter{w: w}
	// Header.
	hdr := make([]byte, headerSize)
	copy(hdr, segMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], segVersion)
	le.PutUint32(hdr[12:], uint32(nbits))
	le.PutUint32(hdr[16:], uint32(blockEntries))
	le.PutUint32(hdr[20:], uint32(scheme.Bands))
	le.PutUint32(hdr[24:], uint32(scheme.Rows))
	// hdr[28:32], the probes word, stays 0: the key section holds band keys.
	le.PutUint64(hdr[32:], scheme.Seed)
	le.PutUint32(hdr[40:], crc32.ChecksumIEEE(hdr[:40]))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Entry log.
	var rec []byte
	for _, e := range entries {
		pos := e.FP.Positions()
		need := 8 + 4 + 4*len(pos) + 2 + len(e.Name)
		rec = rec[:0]
		rec = le.AppendUint64(rec, uint64(e.ID))
		rec = le.AppendUint32(rec, uint32(len(pos)))
		for _, p := range pos {
			rec = le.AppendUint32(rec, p)
		}
		rec = le.AppendUint16(rec, uint16(len(e.Name)))
		rec = append(rec, e.Name...)
		if len(rec) != need {
			return fmt.Errorf("store: record size bookkeeping off: %d != %d", len(rec), need)
		}
		var rh [recHdrSize]byte
		le.PutUint32(rh[0:], uint32(len(rec)))
		le.PutUint32(rh[4:], crc32.ChecksumIEEE(rec))
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	logEnd := bw.n
	if err := bw.pad8(); err != nil {
		return err
	}
	colStart := bw.n
	// Columnar sections, CRC'd as written.
	cw := &crcWriter{w: bw}
	if err := cw.u64s(col.ids); err != nil {
		return err
	}
	if err := cw.u32sPadded(col.cards); err != nil {
		return err
	}
	if err := cw.u32sPadded(col.nameOffs); err != nil {
		return err
	}
	if err := cw.bytesPadded(col.nameBlob); err != nil {
		return err
	}
	if err := cw.u32sPadded(col.perm); err != nil {
		return err
	}
	if err := cw.u64s(col.matrix); err != nil {
		return err
	}
	if err := cw.u64s(col.lshKeys); err != nil {
		return err
	}
	if err := cw.u32sPadded(col.lshIdx); err != nil {
		return err
	}
	// Footer.
	ftr := make([]byte, footerSize)
	copy(ftr, segFtrMagic)
	le.PutUint64(ftr[8:], uint64(logEnd))
	le.PutUint64(ftr[16:], uint64(colStart))
	le.PutUint64(ftr[24:], col.ids[0])
	le.PutUint64(ftr[32:], col.ids[len(col.ids)-1])
	le.PutUint32(ftr[40:], uint32(len(entries)))
	le.PutUint32(ftr[44:], uint32(len(col.lshKeys)))
	le.PutUint32(ftr[48:], cw.crc)
	le.PutUint32(ftr[52:], crc32.ChecksumIEEE(ftr[:52]))
	_, err := bw.Write(ftr)
	return err
}

// countWriter tracks the byte offset so section boundaries land 8-aligned.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

var zeros [8]byte

func (c *countWriter) pad8() error {
	if r := c.n % 8; r != 0 {
		_, err := c.Write(zeros[:8-r])
		return err
	}
	return nil
}

// crcWriter serializes columnar sections while accumulating their CRC.
type crcWriter struct {
	w   *countWriter
	crc uint32
	buf []byte
}

func (c *crcWriter) raw(b []byte) error {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	_, err := c.w.Write(b)
	return err
}

// u64s encodes v in chunks, so writing a segment's matrix needs no
// file-sized buffer.
func (c *crcWriter) u64s(v []uint64) error {
	for len(v) > 0 {
		chunk := v[:min(len(v), 4096)]
		v = v[len(chunk):]
		c.buf = c.buf[:0]
		for _, x := range chunk {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, x)
		}
		if err := c.raw(c.buf); err != nil {
			return err
		}
	}
	return nil
}

func (c *crcWriter) u32sPadded(v []uint32) error {
	c.buf = c.buf[:0]
	for _, x := range v {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, x)
	}
	if len(v)%2 == 1 {
		c.buf = append(c.buf, 0, 0, 0, 0)
	}
	return c.raw(c.buf)
}

func (c *crcWriter) bytesPadded(b []byte) error {
	if err := c.raw(b); err != nil {
		return err
	}
	if r := len(b) % 8; r != 0 {
		return c.raw(zeros[:8-r])
	}
	return nil
}

// Segment is one loaded segment file: columnar views (mmap-backed on the
// fast path, heap-backed after a salvage or a legacy rebuild) and the
// fingerprint matrix the sweep reads, whose tombstones its owning Tiered
// engine maintains under its mutex.
type Segment struct {
	path         string
	m            *mapping
	nbits        int
	blockEntries int
	scheme       minhash.Scheme
	count        int
	minID, maxID uint64
	salvaged     bool
	// legacy marks a PCSEG01 file or a PCSEG02 file holding multi-probe
	// keys: committed, it serves columnar sections rebuilt from its log,
	// and OpenTiered rewrites it as a band-key PCSEG02.
	legacy bool

	col *colData
	// mat views col.matrix with col.cards; its tombstones (entries removed
	// by Remove, nil until the first) and deadCount are guarded by the
	// owning engine's mutex (a Segment alone is immutable).
	mat       bitset.Matrix
	deadCount int

	// refs keeps the mapping alive while replication snapshots stream the
	// file; compaction defers deletion until the count drops to zero.
	refs atomic.Int32
}

// LoadSegment opens a segment file. With a committed footer the columnar
// sections are mmap'd views and every entry-log record's CRC is verified —
// a failed record is refused as *CorruptError with its offset. Without a
// valid footer the file is treated as torn: the longest valid prefix of log
// records is rebuilt into heap-backed sections (Salvaged reports this) and
// the tail is dropped, mirroring the WAL's torn-tail rule. A committed
// PCSEG01 file, or a PCSEG02 file holding multi-probe keys, is verified the
// same way and its columnar sections rebuilt in heap from the log with band
// keys.
func LoadSegment(path string) (*Segment, error) {
	m, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	seg, err := parseSegment(path, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	return seg, nil
}

func parseSegment(path string, m *mapping) (*Segment, error) {
	data := m.data
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("file of %d bytes is shorter than the %d-byte header", len(data), headerSize)}
	}
	version := uint32(segVersion)
	switch string(data[:8]) {
	case segMagic:
	case segMagicV1:
		version = segVersionV1
	default:
		return nil, &CorruptError{Path: path, Offset: 0, Reason: "bad magic"}
	}
	if got, want := le.Uint32(data[40:]), crc32.ChecksumIEEE(data[:40]); got != want {
		return nil, &CorruptError{Path: path, Offset: 40, Reason: "header checksum mismatch"}
	}
	if v := le.Uint32(data[8:]); v != version {
		return nil, fmt.Errorf("store: segment %s has unsupported version %d", path, v)
	}
	seg := &Segment{
		path:         path,
		m:            m,
		nbits:        int(le.Uint32(data[12:])),
		blockEntries: int(le.Uint32(data[16:])),
		scheme: minhash.Scheme{
			Bands: int(le.Uint32(data[20:])),
			Rows:  int(le.Uint32(data[24:])),
			Seed:  le.Uint64(data[32:]),
		},
		// A probes word of 1 marks a multi-probe key section: rebuilt from
		// the log like PCSEG01's blocks.
		legacy: version == segVersionV1 || le.Uint32(data[28:]) == 1,
	}
	switch {
	case seg.blockEntries <= 0:
		return nil, &CorruptError{Path: path, Offset: 16, Reason: "zero block width"}
	case seg.blockEntries > bitset.MaxSlicedEntries && version == segVersionV1:
		// PCSEG01 allowed wider blocks; its rebuild packs at the default.
		seg.blockEntries = bitset.DefaultSlicedEntries
	case seg.blockEntries > bitset.MaxSlicedEntries:
		return nil, &CorruptError{Path: path, Offset: 16, Reason: fmt.Sprintf("block width %d over %d", seg.blockEntries, bitset.MaxSlicedEntries)}
	}
	ftr, ok := seg.validFooter(data)
	if !ok {
		seg.salvaged = true
		seg.rebuild(seg.decodeLog(data, int64(len(data))))
		return seg, nil
	}
	if err := seg.verifyLog(data, ftr); err != nil {
		return nil, err
	}
	if seg.legacy {
		entries := seg.decodeLog(data, ftr.logEnd)
		if len(entries) != ftr.count {
			return nil, &CorruptError{Path: path, Offset: headerSize, Reason: fmt.Sprintf("only %d of %d checksummed records decode", len(entries), ftr.count)}
		}
		seg.rebuild(entries)
		return seg, nil
	}
	if err := seg.loadCommitted(data, ftr); err != nil {
		return nil, err
	}
	return seg, nil
}

type footer struct {
	logEnd, colStart int64
	minID, maxID     uint64
	count, nKeys     int
	colCRC           uint32
}

// validFooter decodes and checks the footer; ok=false means torn (salvage),
// never corruption — a file that lost its footer is by definition missing
// its commit point.
func (seg *Segment) validFooter(data []byte) (footer, bool) {
	le := binary.LittleEndian
	if len(data) < headerSize+footerSize {
		return footer{}, false
	}
	f := data[len(data)-footerSize:]
	if string(f[:8]) != segFtrMagic {
		return footer{}, false
	}
	if le.Uint32(f[52:]) != crc32.ChecksumIEEE(f[:52]) {
		return footer{}, false
	}
	ftr := footer{
		logEnd:   int64(le.Uint64(f[8:])),
		colStart: int64(le.Uint64(f[16:])),
		minID:    le.Uint64(f[24:]),
		maxID:    le.Uint64(f[32:]),
		count:    int(le.Uint32(f[40:])),
		nKeys:    int(le.Uint32(f[44:])),
		colCRC:   le.Uint32(f[48:]),
	}
	if ftr.logEnd < headerSize || ftr.colStart < ftr.logEnd ||
		ftr.colStart%8 != 0 || ftr.colStart > int64(len(data)-footerSize) || ftr.count <= 0 {
		return footer{}, false
	}
	if crc32.ChecksumIEEE(data[ftr.colStart:int64(len(data)-footerSize)]) != ftr.colCRC {
		return footer{}, false
	}
	return ftr, true
}

// verifyLog walks the committed entry log verifying record CRCs (interior
// corruption is refused here): counts and checksums only, no
// materialization.
func (seg *Segment) verifyLog(data []byte, ftr footer) error {
	off := int64(headerSize)
	le := binary.LittleEndian
	for i := 0; i < ftr.count; i++ {
		if off+recHdrSize > ftr.logEnd {
			return &CorruptError{Path: seg.path, Offset: off, Reason: fmt.Sprintf("log ends after %d of %d records", i, ftr.count)}
		}
		n := int64(le.Uint32(data[off:]))
		want := le.Uint32(data[off+4:])
		if off+recHdrSize+n > ftr.logEnd {
			return &CorruptError{Path: seg.path, Offset: off, Reason: "record overruns the committed log"}
		}
		if crc32.ChecksumIEEE(data[off+recHdrSize:off+recHdrSize+n]) != want {
			return &CorruptError{Path: seg.path, Offset: off, Reason: fmt.Sprintf("record %d checksum mismatch", i)}
		}
		off += recHdrSize + n
	}
	if off != ftr.logEnd {
		return &CorruptError{Path: seg.path, Offset: off, Reason: "trailing bytes inside the committed log"}
	}
	return nil
}

// loadCommitted wires the columnar views off the mapping of a committed
// PCSEG02 file whose log verifyLog checked.
func (seg *Segment) loadCommitted(data []byte, ftr footer) error {
	seg.count, seg.minID, seg.maxID = ftr.count, ftr.minID, ftr.maxID
	n := ftr.count
	b := seg.blockEntries
	nBlocks := int64((n + b - 1) / b)
	// Section walk; every offset is 8-aligned by construction.
	o := ftr.colStart
	next := func(size int64) ([]byte, error) {
		if o+size > int64(len(data))-footerSize {
			return nil, &CorruptError{Path: seg.path, Offset: o, Reason: "columnar section overruns the file"}
		}
		s := data[o : o+size]
		o += size
		return s, nil
	}
	pad8 := func(n int64) int64 { return (n + 7) &^ 7 }
	idsB, err := next(int64(n) * 8)
	if err != nil {
		return err
	}
	cardsB, err := next(pad8(int64(n) * 4))
	if err != nil {
		return err
	}
	offsB, err := next(pad8(int64(n+1) * 4))
	if err != nil {
		return err
	}
	offs := u32view(offsB)[:n+1]
	blobB, err := next(pad8(int64(offs[n])))
	if err != nil {
		return err
	}
	permB, err := next(pad8(int64(n) * 4))
	if err != nil {
		return err
	}
	if int64(seg.nbits) > int64(len(data))/8/nBlocks {
		return &CorruptError{Path: seg.path, Offset: o, Reason: fmt.Sprintf("a %d-bit matrix of %d blocks overruns the file", seg.nbits, nBlocks)}
	}
	matrixB, err := next(int64(seg.nbits) * nBlocks * 8)
	if err != nil {
		return err
	}
	keysB, err := next(int64(ftr.nKeys) * 8)
	if err != nil {
		return err
	}
	idxB, err := next(pad8(int64(ftr.nKeys) * 4))
	if err != nil {
		return err
	}
	if o != int64(len(data))-footerSize {
		return &CorruptError{Path: seg.path, Offset: o, Reason: "columnar sections do not fill the file"}
	}
	seg.col = &colData{
		ids:      u64view(idsB),
		cards:    u32view(cardsB)[:n],
		nameOffs: offs,
		nameBlob: blobB[:offs[n]],
		perm:     u32view(permB)[:n],
		matrix:   u64view(matrixB),
		lshKeys:  u64view(keysB),
		lshIdx:   u32view(idxB)[:ftr.nKeys],
	}
	seg.mat = bitset.ViewMatrix(seg.nbits, b, seg.col.matrix, seg.col.cards)
	return nil
}

// decodeLog decodes the longest valid prefix of the entry log in
// data[:end]: records stop at the first that overruns end, fails its
// checksum or does not decode.
func (seg *Segment) decodeLog(data []byte, end int64) []fingerprint.IDEntry {
	le := binary.LittleEndian
	var entries []fingerprint.IDEntry
	for off := int64(headerSize); off+recHdrSize <= end; {
		n := int64(le.Uint32(data[off:]))
		want := le.Uint32(data[off+4:])
		if off+recHdrSize+n > end {
			break
		}
		payload := data[off+recHdrSize : off+recHdrSize+n]
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		e, err := decodeRecord(payload, seg.nbits)
		if err != nil {
			break
		}
		entries = append(entries, e)
		off += recHdrSize + n
	}
	return entries
}

// rebuild builds the columnar sections in heap, with band keys, from decoded
// log entries: a salvaged prefix, or a legacy file's whole log.
func (seg *Segment) rebuild(entries []fingerprint.IDEntry) {
	seg.count = len(entries)
	if len(entries) == 0 {
		seg.col = &colData{nameOffs: []uint32{0}}
		return
	}
	pairs := signPairs(nil, entries, 0, seg.scheme)
	seg.col = buildColumnar(entries, pairs, seg.nbits, seg.blockEntries)
	seg.mat = bitset.ViewMatrix(seg.nbits, seg.blockEntries, seg.col.matrix, seg.col.cards)
	seg.minID = seg.col.ids[0]
	seg.maxID = seg.col.ids[len(seg.col.ids)-1]
}

func decodeRecord(p []byte, nbits int) (fingerprint.IDEntry, error) {
	le := binary.LittleEndian
	if len(p) < 12 {
		return fingerprint.IDEntry{}, fmt.Errorf("short record")
	}
	id := le.Uint64(p)
	nPos := int(le.Uint32(p[8:]))
	if len(p) < 12+4*nPos+2 {
		return fingerprint.IDEntry{}, fmt.Errorf("truncated positions")
	}
	pos := make([]uint32, nPos)
	for i := range pos {
		pos[i] = le.Uint32(p[12+4*i:])
		if int(pos[i]) >= nbits {
			return fingerprint.IDEntry{}, fmt.Errorf("position %d out of %d bits", pos[i], nbits)
		}
	}
	o := 12 + 4*nPos
	nameLen := int(le.Uint16(p[o:]))
	if len(p) != o+2+nameLen {
		return fingerprint.IDEntry{}, fmt.Errorf("record length mismatch")
	}
	name := string(p[o+2 : o+2+nameLen])
	return fingerprint.IDEntry{ID: int(id), Name: name, FP: bitset.FromPositions(nbits, pos)}, nil
}

// Salvaged reports whether the segment was recovered from a torn file
// (heap-backed, possibly missing a tail of entries).
func (seg *Segment) Salvaged() bool { return seg.salvaged }

// Len counts entries including tombstoned ones; Live subtracts them.
func (seg *Segment) Len() int  { return seg.count }
func (seg *Segment) Live() int { return seg.count - seg.deadCount }

// Bits reports the fingerprint length every entry in this segment shares.
func (seg *Segment) Bits() int { return seg.nbits }

// Name returns entry pos's name (allocates the string on demand — verdicts
// materialize one name, not the table).
func (seg *Segment) Name(pos int) string { return seg.col.name(pos) }

// ID returns entry pos's add-order id.
func (seg *Segment) ID(pos int) int { return int(seg.col.ids[pos]) }

// FP materializes entry pos's fingerprint as a dense heap Set (Get only —
// the query path never calls it, and bulk readers decode the whole matrix).
func (seg *Segment) FP(pos int) *bitset.Set { return seg.mat.Entry(pos) }

// fps materializes every entry's fingerprint, tombstoned ones included, in
// one row-major pass over the matrix.
func (seg *Segment) fps() []*bitset.Set {
	return bitset.DecodeSlicedMatrix(seg.nbits, seg.blockEntries, seg.count, seg.col.matrix)
}

// Retain pins the segment (and its mapping) for a streaming reader;
// Release undoes it. The owning engine deletes a compacted-away segment's
// file only when the count returns to zero.
func (seg *Segment) Retain()  { seg.refs.Add(1) }
func (seg *Segment) Release() { seg.refs.Add(-1) }

func (seg *Segment) retained() bool { return seg.refs.Load() > 0 }

// Close releases the mapping.
func (seg *Segment) Close() error {
	if seg.m != nil {
		return seg.m.Close()
	}
	return nil
}

// kill tombstones entry pos (engine mutex held).
func (seg *Segment) kill(pos int) {
	if seg.mat.Kill(pos) {
		seg.deadCount++
	}
}

// findName returns the position of the earliest-added live entry under name,
// by binary search over the name-sorted permutation (equal names tie-break
// by position, i.e. by id).
func (seg *Segment) findName(name string) (int, bool) {
	perm := seg.col.perm
	lo := sort.Search(len(perm), func(i int) bool { return seg.col.name(int(perm[i])) >= name })
	for ; lo < len(perm); lo++ {
		pos := int(perm[lo])
		if seg.col.name(pos) != name {
			break
		}
		if !seg.mat.Dead(pos) {
			return pos, true
		}
	}
	return 0, false
}

// candidates returns the entry positions colliding with the query in at
// least one band key, ascending and deduplicated. The query's shared
// signature serves unless this segment was written under another scheme.
func (seg *Segment) candidates(q *fingerprint.Query) []int {
	var out []int
	for _, k := range q.Keys(seg.scheme) {
		keys := seg.col.lshKeys
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		for ; i < len(keys) && keys[i] == k; i++ {
			out = append(out, int(seg.col.lshIdx[i]))
		}
	}
	sort.Ints(out)
	w := 0
	for i, p := range out {
		if i > 0 && p == out[w-1] {
			continue
		}
		out[w] = p
		w++
	}
	return out[:w]
}

// Matrix returns the mmap'd fingerprint matrix with its tombstones: a
// segment is a fingerprint.Component whose positions are its entry
// positions.
func (seg *Segment) Matrix() *bitset.Matrix { return &seg.mat }

// Entry resolves a position to the entry's name and add-order id.
func (seg *Segment) Entry(pos int) (string, int) { return seg.col.name(pos), seg.ID(pos) }

// exportLive appends the live entries (materialized) in id order.
func (seg *Segment) exportLive(dst []fingerprint.IDEntry) []fingerprint.IDEntry {
	for pos, fp := range seg.fps() {
		if !seg.mat.Dead(pos) {
			dst = append(dst, fingerprint.IDEntry{ID: int(seg.col.ids[pos]), Name: seg.col.name(pos), FP: fp})
		}
	}
	return dst
}

// livePairs appends the LSH pairs of the segment's live entries, numbered
// as exportLive lays them out from base: the key section renumbered past the
// tombstones it drops. A segment written under another scheme holds no
// usable keys, so live — its exported entries — is signed instead.
func (seg *Segment) livePairs(dst []fingerprint.KeyPos, live []fingerprint.IDEntry, base int, scheme minhash.Scheme) []fingerprint.KeyPos {
	if seg.scheme != scheme {
		return signPairs(dst, live, base, scheme)
	}
	renum := make([]uint32, seg.count)
	next := uint32(base)
	for pos := range renum {
		renum[pos] = next
		if !seg.mat.Dead(pos) {
			next++
		}
	}
	for i, k := range seg.col.lshKeys {
		if pos := seg.col.lshIdx[i]; !seg.mat.Dead(int(pos)) {
			dst = append(dst, fingerprint.KeyPos{Key: k, Pos: renum[pos]})
		}
	}
	return dst
}

// VerifySegment deep-checks a segment file: Load's structural and checksum
// validation plus a log-vs-columnar cross-check (every record's id, name,
// cardinality, and bits must match the columnar sections the queries serve
// from). The LSH key section is checked too, since the writer takes its keys
// from the caller rather than from the bits it writes: the key count must
// be count × Bands for the header's scheme, the pairs sorted by (key,
// entry) with every entry in range, and on the kernel self-check's
// 1-in-(count/64) sample every band key re-derived from the entry's log
// record must sit at that entry's position. A salvaged (torn) file fails
// verification — triage should see it. A PCSEG01 or multi-probe file is
// checked through Load's rebuild from its log.
func VerifySegment(path string) error {
	seg, err := LoadSegment(path)
	if err != nil {
		return err
	}
	defer seg.Close()
	if seg.Salvaged() {
		return fmt.Errorf("store: segment %s has no committed footer (torn tail, %d salvageable entries)", path, seg.count)
	}
	m, err := mapFile(path)
	if err != nil {
		return err
	}
	defer m.Close()
	// The key and entry sections end the columnar region, just before the
	// footer; a refusal points into the key section.
	keys, idx := seg.col.lshKeys, seg.col.lshIdx
	keysOff := int64(len(m.data)) - footerSize - (int64(len(idx))*4+7)&^7 - int64(len(keys))*8
	keyErr := func(pair int, why string) error {
		return &CorruptError{Path: path, Offset: keysOff + 8*int64(pair), Reason: "LSH key section: " + why}
	}
	if i, why := checkKeys(keys, idx, seg.count, seg.scheme.Bands); i >= 0 {
		return keyErr(i, why)
	}
	le := binary.LittleEndian
	fps := seg.fps()
	step := 1 + seg.count/64
	off := int64(headerSize)
	for pos, fp := range fps {
		n := int64(le.Uint32(m.data[off:]))
		e, err := decodeRecord(m.data[off+recHdrSize:off+recHdrSize+n], seg.nbits)
		if err != nil {
			return &CorruptError{Path: path, Offset: off, Reason: err.Error()}
		}
		if e.ID != seg.ID(pos) || e.Name != seg.Name(pos) || e.FP.Count() != int(seg.col.cards[pos]) || !e.FP.Equal(fp) {
			return &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("entry %d diverges between log and columnar sections", pos)}
		}
		if pos%step == 0 {
			for _, k := range entryKeys(seg.scheme, e.FP) {
				i := sort.Search(len(keys), func(i int) bool { return keys[i] > k || keys[i] == k && int(idx[i]) >= pos })
				if i == len(keys) || keys[i] != k || int(idx[i]) != pos {
					return keyErr(i, fmt.Sprintf("key %#x of entry %d, re-derived from its log record, is not indexed at that entry", k, pos))
				}
			}
		}
		off += recHdrSize + n
	}
	// The columnar kernel must agree with the scalar one on a live entry.
	for pos := 0; pos < seg.count; pos += step {
		fp := fps[pos]
		r := seg.mat.MinCardAndNotCountOne(fp, pos)
		if r.Diff != 0 || r.MinCard != fp.Count() {
			return &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("self-distance of entry %d is not zero", pos)}
		}
	}
	return nil
}

// u64view reinterprets an 8-aligned little-endian byte section as []uint64
// without copying; on a big-endian or misaligned platform it decodes into a
// fresh slice instead.
func u64view(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func u32view(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
