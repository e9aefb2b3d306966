package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/prng"
)

// requireSigned checks every segment tb holds that is not yet in seen: its
// file must be byte-identical to the signing path — every entry signed
// afresh, as the writer's callers once did — over the same entries, and it
// must pass VerifySegment. Each is called right after the step that wrote
// it, so no segment has tombstones yet.
func requireSigned(t *testing.T, tb *Tiered, seen map[*Segment]bool, step string) {
	t.Helper()
	for _, seg := range tb.segs {
		if seen[seg] {
			continue
		}
		seen[seg] = true
		got, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		entries := seg.exportLive(nil)
		ref := filepath.Join(t.TempDir(), "signed.pcseg")
		pairs := signPairs(nil, entries, 0, tb.scheme)
		if err := WriteSegment(ref, entries, pairs, tb.scheme); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s (%d entries) differs from the signing path's segment", step, filepath.Base(seg.path), len(entries))
		}
		if err := VerifySegment(seg.path); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
}

// checkpointChecked is Tiered.Checkpoint step by step — the flush, then each
// compaction — checking every segment a step writes before a later step can
// compact it away.
func checkpointChecked(t *testing.T, tb *Tiered, seen map[*Segment]bool) {
	t.Helper()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if err := tb.flushLocked(tb.watermark); err != nil {
		t.Fatal(err)
	}
	requireSigned(t, tb, seen, "flush")
	for len(tb.segs) > tb.cfg.CompactSegments {
		if err := tb.compactOnceLocked(); err != nil {
			t.Fatal(err)
		}
		requireSigned(t, tb, seen, "compaction")
	}
	tb.sweepGraveLocked()
}

// TestSignOnceSegmentsMatchSigning: flushes write the keys the memtable
// filled and compactions the keys their source segments hold, and every
// segment either writes is byte-identical to the one the signing path
// writes over the same entries — with memtable tombstones below and above
// RebuildMinDead (so the memtable has been rebuilt, carrying filled keys),
// segment tombstones dropped by compaction, duplicate names and an empty
// fingerprint. Each round decides a stranger part way through its Adds, so
// a lookup filled part of every flush's keys and the flush the rest. Rows
// keep the names they had when multi-probe keys and the block width were
// settings (probes=false/B=8, probes=false/B=64): every segment now holds
// band keys in 64-entry blocks, and a row's number only seeds its tape.
func TestSignOnceSegmentsMatchSigning(t *testing.T) {
	const nbits = 1024
	signatures := obs.C("fingerprint.signatures")
	obs.Enable()
	defer obs.Disable()
	for _, tape := range []int{8, 64} {
		t.Run(fmt.Sprintf("probes=false/B=%d", tape), func(t *testing.T) {
			tb, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 1 << 20, CompactSegments: 2},
				DBConfig{Threshold: fingerprint.DefaultThreshold})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			src := prng.New(0x516E + uint64(tape))
			strangers := prng.New(0x5753 + uint64(tape))
			seen := map[*Segment]bool{}
			// round adds n entries under n/2 names, each twice, deciding a
			// stranger after the first n/3 (its fill signs them), plus one
			// empty fingerprint, then removes the first dead of those names'
			// entries from the memtable.
			round := func(r, n, dead int) {
				for i := 0; i < n; i++ {
					if i == n/3 {
						before := signatures.Value()
						tb.Decide(testFP(strangers.Uint64(), nbits, 40))
						if got := signatures.Value() - before; got < int64(1+n/3) {
							t.Fatalf("round %d: the Decide signed %d, want its query and the %d entries added so far", r, got, n/3)
						}
					}
					tb.Add(fmt.Sprintf("r%d-dev%03d", r, i%(n/2)), testFP(src.Uint64(), nbits, 20+src.Intn(40)))
				}
				tb.Add(fmt.Sprintf("r%d-empty", r), bitset.New(nbits))
				for i := 0; i < dead; i++ {
					if !tb.Remove(fmt.Sprintf("r%d-dev%03d", r, i%(n/2))) {
						t.Fatalf("round %d: remove %d failed", r, i)
					}
				}
			}
			round(1, 160, 30)
			if got := tb.mem.Rebuilds(); got != 0 {
				t.Fatalf("round 1: %d memtable rebuilds, want none", got)
			}
			checkpointChecked(t, tb, seen)
			// 300 removes: the memtable is rebuilt at every 64 tombstones
			// and flushes with the rest still tombstoned.
			round(2, 400, 300)
			if tb.mem.Rebuilds() == 0 {
				t.Fatal("round 2: the memtable was not rebuilt")
			}
			checkpointChecked(t, tb, seen)
			// Tombstone round 2's segment, so the compaction that merges
			// it renumbers its keys past the dropped entries.
			for i := 0; i < 10; i++ {
				if !tb.Remove(fmt.Sprintf("r2-dev%03d", 100+i)) {
					t.Fatalf("segment remove %d failed", i)
				}
			}
			round(3, 100, 5)
			checkpointChecked(t, tb, seen)
			round(4, 60, 0)
			checkpointChecked(t, tb, seen)
			if len(seen) < 6 {
				t.Fatalf("checked %d segments, want the 4 flushes and at least 2 compactions", len(seen))
			}
			if err := VerifyDir(tb.cfg.Dir); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSignOnceSignatureCount: with obs on, Adds compute no signature; a
// Decide signs its query once plus the memtable entries its fill covers; a
// flush signs exactly the entries no lookup had filled — the Checkpoint's
// fill — and writes its segment signing nothing more, and a same-scheme
// compaction signs nothing; a compaction with one source written under
// another scheme signs exactly that source's entries beyond the flush's
// fill; and opening the PCSEG01 fixture signs its 48 entries once — in the
// load-time rebuild — and not again for the rewrite.
func TestSignOnceSignatureCount(t *testing.T) {
	signatures := obs.C("fingerprint.signatures")
	obs.Enable()
	defer obs.Disable()
	counted := func(f func() error) int64 {
		t.Helper()
		before := signatures.Value()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return signatures.Value() - before
	}
	addAll := func(tb *Tiered, entries []fingerprint.IDEntry) func() error {
		return func() error {
			for _, e := range entries {
				tb.Add(e.Name, e.FP)
			}
			return nil
		}
	}
	entries := testEntries(60, 1024)

	tb, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 1 << 20, CompactSegments: 1},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if got := counted(addAll(tb, entries[:30])); got != 0 {
		t.Fatalf("30 Adds: %d signatures, want 0", got)
	}
	if got := counted(tb.Flush); got != 30 || tb.SegmentCount() != 1 {
		t.Fatalf("flush: %d signatures and %d segments, want 30 (the fill) and 1", got, tb.SegmentCount())
	}
	if got := counted(addAll(tb, entries[30:45])); got != 0 {
		t.Fatalf("15 Adds: %d signatures, want 0", got)
	}
	// A stranger: no segment candidate arms the bound, so the memtable's
	// candidate stage runs and fills.
	stranger := testFP(0x57A, 1024, 40)
	decide := func() error { tb.Decide(stranger); return nil }
	if got := counted(decide); got != 1+15 {
		t.Fatalf("first Decide: %d signatures, want 16 (the query and the 15-entry fill)", got)
	}
	if got := counted(decide); got != 1 {
		t.Fatalf("second Decide: %d signatures, want 1", got)
	}
	if got := counted(addAll(tb, entries[45:])); got != 0 {
		t.Fatalf("15 Adds: %d signatures, want 0", got)
	}
	tb.Remove(entries[4].Name)
	tb.Remove(entries[11].Name)
	if got := counted(tb.Flush); got != 15 || tb.SegmentCount() != 1 {
		t.Fatalf("flush+compaction: %d signatures and %d segments, want 15 (the fill past the Decide's) and 1", got, tb.SegmentCount())
	}
	requireSigned(t, tb, map[*Segment]bool{}, "same-scheme compaction")

	// A store whose first segment was written under another scheme: the
	// compaction merging it signs its entries, and only those.
	dir := t.TempDir()
	foreign := entries[:20]
	own := minhash.Scheme{Bands: 4, Rows: 2, Seed: 9}
	if err := WriteSegment(filepath.Join(dir, segmentName(0)), foreign, signPairs(nil, foreign, 0, own), own); err != nil {
		t.Fatal(err)
	}
	next := foreign[len(foreign)-1].ID + 1
	if err := commitManifest(dir, manifest{Version: manifestVersion, NextID: next, Segments: []string{segmentName(0)}}); err != nil {
		t.Fatal(err)
	}
	tb, err = OpenTiered(Config{Dir: dir, FlushEntries: 1 << 20, CompactSegments: 1},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if got := counted(addAll(tb, entries[20:50])); got != 0 {
		t.Fatalf("30 Adds: %d signatures, want 0", got)
	}
	if got := counted(tb.Flush); got != 30+int64(len(foreign)) || tb.SegmentCount() != 1 {
		t.Fatalf("foreign-scheme compaction: %d signatures and %d segments, want %d (the 30-entry fill and the foreign source) and 1", got, tb.SegmentCount(), 30+len(foreign))
	}
	requireSigned(t, tb, map[*Segment]bool{}, "foreign-scheme compaction")

	// The PCSEG01 fixture: each segment is signed in its load-time rebuild,
	// and the rewrite reuses those keys.
	dir = copyDir(t, legacyFixture)
	var legacy *Tiered
	got := counted(func() (err error) {
		legacy, err = OpenTiered(Config{Dir: dir}, DBConfig{Threshold: fingerprint.DefaultThreshold})
		return err
	})
	defer legacy.Close()
	if got != 48 {
		t.Fatalf("opening the PCSEG01 fixture: %d signatures, want 48", got)
	}
	requireSigned(t, legacy, map[*Segment]bool{}, "PCSEG01 rewrite")
}

// TestVerifySegmentKeySection: VerifySegment refuses a segment whose key
// section disagrees with its entries — one pair dropped, a sampled entry's
// key altered in place (order kept), two pairs swapped, and a multi-probe
// section of Bands·(1+Rows) keys an entry under a header whose probes word
// is 0 — with a CorruptError naming the key section, and passes the clean
// file. The damaged files are CRC-valid, written through the internal
// writer past WriteSegment's own count check, which refuses the multi-probe
// keys too.
func TestVerifySegmentKeySection(t *testing.T) {
	const nbits = 1024
	entries := testEntries(100, nbits)
	scheme := minhash.DefaultScheme
	// probed is the key section a store written with multi-probe keys held.
	probed := buildColumnar(entries, probePairs(entries, scheme), nbits, 8)
	if err := WriteSegment(filepath.Join(t.TempDir(), segmentName(0)), entries, probePairs(entries, scheme), scheme); err == nil {
		t.Fatal("WriteSegment took multi-probe keys")
	}
	cases := []struct {
		name   string
		mutate func(c *colData)
		reason string // "" for the clean file
	}{
		{"clean", func(*colData) {}, ""},
		{"dropped pair", func(c *colData) {
			c.lshKeys = slices.Delete(c.lshKeys, 17, 18)
			c.lshIdx = slices.Delete(c.lshIdx, 17, 18)
		}, "keys for"},
		{"altered key", func(c *colData) {
			// Entry 0 is always sampled; bump one of its keys where the
			// next key is far enough above that the order still holds.
			for i, pos := range c.lshIdx {
				if pos == 0 && (i+1 == len(c.lshKeys) || c.lshKeys[i+1] > c.lshKeys[i]+1) {
					c.lshKeys[i]++
					return
				}
			}
			t.Fatal("fixture: no alterable key of entry 0")
		}, "re-derived"},
		{"swapped pairs", func(c *colData) {
			for i := range c.lshKeys[1:] {
				if c.lshKeys[i] != c.lshKeys[i+1] {
					c.lshKeys[i], c.lshKeys[i+1] = c.lshKeys[i+1], c.lshKeys[i]
					c.lshIdx[i], c.lshIdx[i+1] = c.lshIdx[i+1], c.lshIdx[i]
					return
				}
			}
		}, "order"},
		{"multi-probe keys", func(c *colData) {
			c.lshKeys, c.lshIdx = probed.lshKeys, probed.lshIdx
		}, "keys for"},
	}
	for _, tc := range cases {
		col := buildColumnar(entries, signPairs(nil, entries, 0, scheme), nbits, 8)
		tc.mutate(col)
		path := filepath.Join(t.TempDir(), segmentName(0))
		if err := writeColumnar(path, entries, col, scheme, nbits, 8); err != nil {
			t.Fatal(err)
		}
		err := VerifySegment(path)
		if tc.reason == "" {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v, want a CorruptError", tc.name, err)
		}
		if !strings.HasPrefix(ce.Reason, "LSH key section: ") || !strings.Contains(ce.Reason, tc.reason) {
			t.Fatalf("%s: reason %q, want the key section and %q", tc.name, ce.Reason, tc.reason)
		}
		if info, err := os.Stat(path); err != nil || ce.Offset <= headerSize || ce.Offset >= info.Size() {
			t.Fatalf("%s: offset %d outside the file", tc.name, ce.Offset)
		}
	}
}

// probePairs returns the multi-probe pairs of entries, Bands·(1+Rows) keys
// an entry: the key section a store written with multi-probe keys held.
func probePairs(entries []fingerprint.IDEntry, scheme minhash.Scheme) []fingerprint.KeyPos {
	var pairs []fingerprint.KeyPos
	for i, e := range entries {
		for _, k := range scheme.ProbeKeys(scheme.Sign(bitset.Sparse(e.FP.Positions()))) {
			pairs = append(pairs, fingerprint.KeyPos{Key: k, Pos: uint32(i)})
		}
	}
	return pairs
}

// TestSortPairs: the bucketed sort orders pairs exactly as a comparison
// sort by (Key, Pos) does — on hashed keys, on keys crowded into one bucket
// (shared top bits, long runs of one key) and on tiny inputs.
func TestSortPairs(t *testing.T) {
	src := prng.New(0x5087)
	for _, n := range []int{0, 1, 2, 17, 1000, 70000} {
		for _, shape := range []string{"hashed", "crowded", "shared"} {
			pairs := make([]fingerprint.KeyPos, n)
			for i := range pairs {
				k := src.Uint64()
				switch shape {
				case "crowded": // one top-bits bucket, keys still distinct
					k >>= 20
				case "shared": // a handful of keys, each held by many entries
					k = uint64(src.Intn(5)) << 60
				}
				pairs[i] = fingerprint.KeyPos{Key: k, Pos: uint32(src.Intn(n/4 + 1))}
			}
			want := slices.Clone(pairs)
			slices.SortFunc(want, func(a, b fingerprint.KeyPos) int {
				if a.Key != b.Key {
					return cmp.Compare(a.Key, b.Key)
				}
				return cmp.Compare(a.Pos, b.Pos)
			})
			if got := sortPairs(pairs); !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: bucketed sort differs from the comparison sort", n, shape)
			}
		}
	}
}

// BenchmarkCheckpoint times Tiered.Checkpoint of a 16,384-entry memtable —
// the sweep-cold workload's flush size — of random 40–80-of-2048-cell
// fingerprints: the key fill that signs the memtable across the worker pool
// (Adds no longer sign), the keyed memtable export, the segment write and
// fsync, the manifest commit and the reload. The Adds are not timed, and no
// compaction runs.
func BenchmarkCheckpoint(b *testing.B) {
	const per = 16384
	src := prng.New(0xC4EC)
	fps := make([]*bitset.Set, per)
	for i := range fps {
		fps[i] = coldCells(src, 40+src.Intn(41), nil)
	}
	tb, err := OpenTiered(Config{Dir: b.TempDir(), FlushEntries: 1 << 20, CompactSegments: 1 << 20},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, fp := range fps {
			tb.Add(fmt.Sprintf("dev%d-%05d", i, j), fp)
		}
		b.StartTimer()
		if err := tb.Checkpoint(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTieredIngest times filling a tiered store as the sweep-cold
// workload's set-up does: 65,536 Adds of random 40–80-of-2048-cell
// fingerprints, with a Checkpoint at every 16,384 — the Adds, each
// flush's key fill, export, segment write and manifest commit. It reports
// the cost per entry.
func BenchmarkTieredIngest(b *testing.B) {
	const total, per = 65536, 16384
	src := prng.New(0x1E57)
	fps := make([]*bitset.Set, total)
	for i := range fps {
		fps[i] = coldCells(src, 40+src.Intn(41), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb, err := OpenTiered(Config{Dir: b.TempDir(), FlushEntries: per, CompactSegments: 1 << 20},
			DBConfig{Threshold: fingerprint.DefaultThreshold})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, fp := range fps {
			tb.Add(fmt.Sprintf("dev%05d", j), fp)
			if (j+1)%per == 0 {
				if err := tb.Checkpoint(uint64(j + 1)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if err := tb.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*total), "us/entry")
}
