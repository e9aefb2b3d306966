package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/prng"
)

// multiBlockEntries fills three 64-entry blocks, the last partly: the store
// suites write this many entries to a segment so that it spans several
// blocks and ends in a partial one.
const multiBlockEntries = 150

// spansBlocks reports whether some segment of tb spans three or more blocks
// and ends in a partial one.
func spansBlocks(tb *Tiered) bool {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	for _, seg := range tb.segs {
		if seg.mat.NumBlocks() >= 3 && seg.Len()%seg.blockEntries != 0 {
			return true
		}
	}
	return false
}

func openTestTiered(t *testing.T, dir string, compact int) *Tiered {
	t.Helper()
	tb, err := OpenTiered(
		Config{Dir: dir, FlushEntries: 8, CompactSegments: compact},
		DBConfig{Threshold: fingerprint.DefaultThreshold},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestTieredFlushRecover: enroll → flush → reopen recovers ids, names,
// watermark, and verdicts across the memtable/segment boundary.
func TestTieredFlushRecover(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	const n, nbits = multiBlockEntries, 1024
	entries := testEntries(n, nbits)
	for i, e := range entries {
		if id := tb.Add(e.Name, e.FP); id != i {
			t.Fatalf("Add %d returned id %d", i, id)
		}
	}
	if err := tb.Checkpoint(42); err != nil {
		t.Fatal(err)
	}
	if tb.SegmentCount() != 1 || !spansBlocks(tb) {
		t.Fatalf("SegmentCount = %d after flush, want 1 spanning three blocks", tb.SegmentCount())
	}
	// Post-flush adds land above the flushed range.
	extraFP := testFP(0x777, nbits, 40)
	if id := tb.Add("extra", extraFP); id != n {
		t.Fatalf("post-flush Add returned id %d, want %d", id, n)
	}
	// Flushed entries still answer identically.
	for i := 0; i < n; i += 5 {
		q := noisy(entries[i].FP, uint64(i), 2)
		if v := tb.Decide(q); !v.OK() || v.Index != i || v.Name != entries[i].Name {
			t.Fatalf("post-flush Decide(%d) = %+v", i, v)
		}
	}
	tb.Close()

	// Reopen: manifest restores watermark, next id, and the flushed segment;
	// the unflushed "extra" entry is gone (it was never checkpointed — the
	// serving layer replays it from the WAL).
	tb = openTestTiered(t, dir, 8)
	defer tb.Close()
	if tb.Watermark() != 42 {
		t.Fatalf("recovered watermark = %d", tb.Watermark())
	}
	if tb.Len() != n {
		t.Fatalf("recovered Len = %d, want %d", tb.Len(), n)
	}
	if _, ok := tb.Get("extra"); ok {
		t.Fatal("unflushed entry survived reopen without WAL replay")
	}
	// Re-adding it (as WAL replay would) reassigns the same id.
	if id := tb.Add("extra", extraFP); id != n {
		t.Fatalf("replayed Add returned id %d, want %d", id, n)
	}
	for i := 0; i < n; i += 5 {
		q := noisy(entries[i].FP, uint64(i), 2)
		if v := tb.Decide(q); !v.OK() || v.Index != i || v.Name != entries[i].Name {
			t.Fatalf("recovered Decide(%d) = %+v", i, v)
		}
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestTieredTombstonePersistence: removes against flushed segments — in its
// first block and in its partial last one — survive the next checkpoint +
// reopen; removes against the memtable never hit disk.
func TestTieredTombstonePersistence(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	const n = multiBlockEntries
	entries := testEntries(n, 1024)
	for _, e := range entries {
		tb.Add(e.Name, e.FP)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !spansBlocks(tb) {
		t.Fatal("flushed segment spans fewer than three blocks")
	}
	// Tombstone two flushed entries and a fresh memtable entry.
	tb.Add("young", testFP(0x51, 1024, 40))
	if !tb.Remove(entries[3].Name) || !tb.Remove(entries[140].Name) || !tb.Remove("young") {
		t.Fatal("Remove failed")
	}
	if tb.Len() != n-2 {
		t.Fatalf("Len = %d after removes", tb.Len())
	}
	if err := tb.Flush(); err != nil { // persists the segment tombstones
		t.Fatal(err)
	}
	tb.Close()

	tb = openTestTiered(t, dir, 8)
	defer tb.Close()
	if tb.Len() != n-2 {
		t.Fatalf("recovered Len = %d, want %d", tb.Len(), n-2)
	}
	for _, i := range []int{3, 140} {
		if _, ok := tb.Get(entries[i].Name); ok {
			t.Fatalf("tombstoned segment entry %d resurrected on reopen", i)
		}
	}
	if _, ok := tb.Get("young"); ok {
		t.Fatal("removed memtable entry resurrected")
	}
	// The survivors next to the tombstones keep their ids.
	for _, i := range []int{4, 141} {
		if v := tb.Decide(noisy(entries[i].FP, uint64(i), 2)); !v.OK() || v.Index != i || v.Name != entries[i].Name {
			t.Fatalf("Decide(%d) = %+v", i, v)
		}
	}
}

// TestTieredCompaction: pushing past CompactSegments merges adjacent segments,
// drops tombstones physically, and preserves every verdict and id. Batches of
// 45 leave a merged segment of 135 entries: three blocks, the last partial.
func TestTieredCompaction(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 2)
	defer tb.Close()
	const batches, per, nbits = 5, 45, 1024
	entries := testEntries(batches*per, nbits)
	for b := 0; b < batches; b++ {
		for _, e := range entries[b*per : (b+1)*per] {
			tb.Add(e.Name, e.FP)
		}
		if b == 2 {
			// Tombstone an already-flushed entry mid-sequence.
			if !tb.Remove(entries[1].Name) {
				t.Fatal("Remove failed")
			}
		}
		if err := tb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.SegmentCount(); got > 2 || !spansBlocks(tb) {
		t.Fatalf("SegmentCount = %d after compaction (cap 2), or none spans three blocks", got)
	}
	if tb.Len() != batches*per-1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i, e := range entries {
		v := tb.Decide(noisy(e.FP, uint64(i), 2))
		if i == 1 {
			if v.OK() && v.Index == 1 {
				t.Fatal("tombstoned entry matched after compaction")
			}
			continue
		}
		if !v.OK() || v.Index != i || v.Name != e.Name {
			t.Fatalf("post-compaction Decide(%d) = %+v", i, v)
		}
	}
	// Compaction dropped the merged tombstone from the persisted set.
	man, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest: %v %v", ok, err)
	}
	for _, id := range man.Tombstones {
		if id == 1 {
			t.Fatal("physically dropped tombstone still persisted")
		}
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestTieredOrphanSweep: a segment file not named by the manifest — a flush
// that crashed before commit — is deleted at open.
func TestTieredOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	entries := testEntries(multiBlockEntries, 1024)
	for _, e := range entries {
		tb.Add(e.Name, e.FP)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	// Plant an orphan: valid segment bytes under an uncommitted name.
	committed := filepath.Join(dir, segmentName(0))
	blob, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, segmentName(9))
	if err := os.WriteFile(orphan, blob, 0o666); err != nil {
		t.Fatal(err)
	}
	tb = openTestTiered(t, dir, 8)
	defer tb.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan not swept: %v", err)
	}
	if tb.Len() != multiBlockEntries || !spansBlocks(tb) {
		t.Fatalf("Len = %d after sweep, want %d in a segment of three blocks", tb.Len(), multiBlockEntries)
	}
	// The orphan's sequence number must not be reused blindly below committed
	// ones — next flush still lands on a fresh name and the store verifies.
	tb.Add("late", testFP(0x99, 1024, 40))
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir after sweep+flush: %v", err)
	}
}

// TestTieredRefusesTornCommitted: a committed segment that lost its footer
// (classified torn) must refuse to open, pointing at triage — never silently
// serve a prefix.
func TestTieredRefusesTornCommitted(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	for _, e := range testEntries(multiBlockEntries, 1024) {
		tb.Add(e.Name, e.FP)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !spansBlocks(tb) {
		t.Fatal("flushed segment spans fewer than three blocks")
	}
	tb.Close()
	path := filepath.Join(dir, segmentName(0))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)*2/3], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTiered(Config{Dir: dir}, DBConfig{Threshold: fingerprint.DefaultThreshold}); err == nil {
		t.Fatal("torn committed segment opened without error")
	}
	if err := VerifyDir(dir); err == nil {
		t.Fatal("VerifyDir passed a torn committed segment")
	}
}

// TestTieredEmptyFlush: checkpointing an empty memtable just advances the
// watermark — no empty segment files.
func TestTieredEmptyFlush(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	defer tb.Close()
	if err := tb.Checkpoint(7); err != nil {
		t.Fatal(err)
	}
	if tb.SegmentCount() != 0 {
		t.Fatalf("empty flush created %d segments", tb.SegmentCount())
	}
	if tb.Watermark() != 7 {
		t.Fatalf("watermark = %d", tb.Watermark())
	}
	matches, _ := filepath.Glob(filepath.Join(dir, segmentPattern))
	if len(matches) != 0 {
		t.Fatalf("segment files on disk: %v", matches)
	}
}

// TestTieredGenerationStability: flush and compaction must not advance the
// generation (cached verdicts stay valid); Add/Remove must.
func TestTieredGenerationStability(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 1)
	defer tb.Close()
	entries := testEntries(multiBlockEntries, 1024)
	for _, e := range entries {
		tb.Add(e.Name, e.FP)
	}
	gen := tb.Generation()
	if gen != multiBlockEntries {
		t.Fatalf("generation = %d after %d adds", gen, multiBlockEntries)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[:5] {
		tb.Add(e.Name+"-b", e.FP)
	}
	if err := tb.Flush(); err != nil { // triggers compaction (cap 1)
		t.Fatal(err)
	}
	if tb.SegmentCount() != 1 || !spansBlocks(tb) {
		t.Fatalf("%d segments after compaction, want one spanning three blocks", tb.SegmentCount())
	}
	if got := tb.Generation(); got != gen+5 {
		t.Fatalf("generation moved by flush/compact: %d, want %d", got, gen+5)
	}
	if !tb.Remove("dev003") {
		t.Fatal("Remove failed")
	}
	if got := tb.Generation(); got != gen+6 {
		t.Fatalf("generation = %d after remove, want %d", got, gen+6)
	}
}

// TestTieredSignsOnce: a Decide over several segments and a non-empty
// memtable signs the query once — every segment and the memtable reuse the
// signature.
func TestTieredSignsOnce(t *testing.T) {
	const n, nbits = 24, 1024
	entries := testEntries(n, nbits)
	signatures := obs.C("fingerprint.signatures")
	tb, err := OpenTiered(Config{Dir: t.TempDir(), CompactSegments: 8},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for i, e := range entries {
		tb.Add(e.Name, e.FP)
		if i%8 == 7 && i < n-1 {
			if err := tb.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tb.SegmentCount() != 2 || tb.mem.Len() == 0 {
		t.Fatalf("fixture: %d segments, %d memtable entries; want 2 and some", tb.SegmentCount(), tb.mem.Len())
	}
	q := noisy(entries[3].FP, 3, 2)
	obs.Enable()
	defer obs.Disable()
	before := signatures.Value()
	tb.Decide(q)
	if got := signatures.Value() - before; got != 1 {
		t.Errorf("Decide: %d signatures, want 1", got)
	}
}

// TestTieredDecidesDuringIngest: identifies keep deciding against one
// tiered store while a writer adds, removes and checkpoints, so the
// lookups' fills, Checkpoint's read-locked fill and the flushes and
// compactions run side by side — under -race this is the locking check for
// signing off the Add path. Once the writer stops, every Decide equals the
// dense scan over the same Adds and Removes, field for field.
func TestTieredDecidesDuringIngest(t *testing.T) {
	const n, nbits = 600, 1024
	tb, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 64, CompactSegments: 3},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	dense, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(0x1D6E)
	fps := make([]*bitset.Set, n)
	for i := range fps {
		fps[i] = testFP(src.Uint64(), nbits, 20+src.Intn(40))
	}
	// Noisy outputs of entries, which segment candidates may settle, and
	// strangers, whose every Decide runs the memtable's candidate stage.
	var qs []*bitset.Set
	for i := 0; i < 24; i++ {
		qs = append(qs, noisy(fps[src.Intn(n)], uint64(i), 2), testFP(src.Uint64(), nbits, 40))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				tb.Decide(qs[i%len(qs)])
			}
		}(r)
	}
	for i, fp := range fps {
		name := fmt.Sprintf("dev%03d", i%400)
		tb.Add(name, fp)
		dense.Add(name, fp)
		if i%5 == 2 {
			victim := fmt.Sprintf("dev%03d", src.Intn(400))
			if got, want := tb.Remove(victim), dense.Remove(victim); got != want {
				t.Fatalf("Remove(%s) = %v, dense %v", victim, got, want)
			}
		}
		if i < n-20 && (tb.NeedsFlush() || i%97 == 50) {
			if err := tb.Checkpoint(uint64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if tb.SegmentCount() == 0 || tb.mem.Len() == 0 {
		t.Fatalf("fixture: %d segments, %d memtable entries; want some of each", tb.SegmentCount(), tb.mem.Len())
	}
	for qi, q := range qs {
		if got, want := tb.Decide(q), dense.Decide(q); got != want {
			t.Errorf("query %d: Decide %+v != dense scan %+v", qi, got, want)
		}
	}
}
