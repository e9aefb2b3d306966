package store

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/prng"
)

// TestBoundedDecideOracle holds Tiered.Decide — one node-wide Decision over
// every segment and memtable shard, whose sweeps are bounded once a
// candidate or a sweep finds a match — to the dense scan: a Plain ShardedDB
// fed the same Adds and Removes, so ids survive removals and flushes.
// Verdicts must be equal field for field, Matches included, on random tapes
// with tombstones, empty sets, duplicate fingerprints in different segments
// (ambiguous verdicts) and queries that are supersets of entries, across
// thresholds and concurrent readers, over a store in which some segment
// spans three blocks with a partial tail. Rows keep the names they had when
// the block width was a setting (B1 to B64): the width is now always 64, and
// a row's number only seeds its tape.
func TestBoundedDecideOracle(t *testing.T) {
	bounded := obs.C("fingerprint.decide.bounded_sweeps")
	obs.Enable()
	defer obs.Disable()
	for _, tape := range []int{1, 3, 8, 64} {
		for _, th := range []float64{0, 0.1, 0.5, 1} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("B%d/t%v/w%d", tape, th, workers), func(t *testing.T) {
					before := bounded.Value()
					runBoundedOracle(t, tape, th, workers)
					if n := bounded.Value() - before; (th == 0) != (n == 0) {
						t.Errorf("%d bounded sweeps at t = %v", n, th)
					}
				})
			}
		}
	}
}

// oracleFP draws a fingerprint for the oracle tapes: sometimes empty,
// usually 4–31 random bits over nbits.
func oracleFP(src *prng.Source, nbits int) *bitset.Set {
	s := bitset.New(nbits)
	if src.Intn(12) == 0 {
		return s
	}
	for k := 4 + src.Intn(28); s.Count() < k; {
		s.Set(src.Intn(nbits))
	}
	return s
}

func runBoundedOracle(t *testing.T, tape int, th float64, workers int) {
	const nbits = 512
	seed := uint64(tape)<<16 ^ uint64(th*1000)<<4 ^ uint64(workers) ^ 0x0BAD
	src := prng.New(seed)
	tb, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 1 << 20, CompactSegments: 3},
		DBConfig{Threshold: th, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	dense, err := fingerprint.NewShardedDB(th, fingerprint.ShardedConfig{Shards: 2, Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	add := func(name string, fp *bitset.Set) {
		if id, want := tb.Add(name, fp), dense.Add(name, fp); id != want {
			t.Fatalf("Add(%s): id %d, dense %d", name, id, want)
		}
	}
	// A first segment of 149 strangers, drawn from a source of their own so
	// the tape below draws what it drew before they were added, spans three
	// 64-entry blocks with a partial tail.
	fill := prng.New(seed ^ 0xF111)
	for i := 0; i < 149; i++ {
		add(fmt.Sprintf("fill%03d", i), oracleFP(fill, nbits))
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	// The pool is added over and over under fresh names, so one fingerprint
	// lands in several segments and the memtable.
	pool := make([]*bitset.Set, 30)
	for i := range pool {
		pool[i] = oracleFP(src, nbits)
	}
	var queries []*bitset.Set
	for i := 0; i < 12; i++ {
		p := pool[src.Intn(len(pool))]
		drop := p.Clone()
		if pos := p.Positions(); len(pos) > 0 {
			drop.Clear(int(pos[src.Intn(len(pos))]))
		}
		super := p.Clone()
		for k := 3*p.Count() + 5; super.Count() < k; {
			super.Set(src.Intn(nbits))
		}
		queries = append(queries, drop, super)
	}
	queries = append(queries, oracleFP(src, nbits), bitset.New(nbits))

	maxSegs, multiBlock := 0, false
	check := func(step int) {
		maxSegs = max(maxSegs, tb.SegmentCount())
		multiBlock = multiBlock || spansBlocks(tb)
		want := make([]fingerprint.Verdict, len(queries))
		for qi, q := range queries {
			want[qi] = dense.Decide(q)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for qi := w; qi < len(queries); qi += workers {
					if got := tb.Decide(queries[qi]); got != want[qi] {
						t.Errorf("step %d query %d: Decide %+v != dense scan %+v", step, qi, got, want[qi])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	const steps = 240
	for step := 0; step < steps && !t.Failed(); step++ {
		switch r := src.Intn(20); {
		case r < 11:
			add(fmt.Sprintf("dev%03d", step), pool[src.Intn(len(pool))])
		case r < 14:
			name := fmt.Sprintf("dev%03d", src.Intn(step+1))
			if got, want := tb.Remove(name), dense.Remove(name); got != want {
				t.Fatalf("step %d: Remove(%s) %v, dense %v", step, name, got, want)
			}
		case r < 16:
			if err := tb.Flush(); err != nil {
				t.Fatal(err)
			}
		case r < 17:
			if err := tb.Checkpoint(uint64(step)); err != nil {
				t.Fatal(err)
			}
		default:
			check(step)
		}
	}
	check(steps)
	if maxSegs < 2 {
		t.Errorf("checks saw at most %d segments; the oracle needs several", maxSegs)
	}
	if !multiBlock {
		t.Error("no segment the checks saw spans three blocks with a partial tail")
	}
}

// coldCells draws n distinct cells of a 2048-bit error string outside avoid
// (nil avoids nothing), the fingerprint shape of the sweep-cold workload.
func coldCells(src *prng.Source, n int, avoid *bitset.Set) *bitset.Set {
	s := bitset.New(2048)
	for s.Count() < n {
		if p := src.Intn(2048); avoid == nil || !avoid.Get(p) {
			s.Set(p)
		}
	}
	return s
}

// coldOutput is a noisy output of the device fp: at most 5 % of its cells
// lost and 10–40 cells that failed only this time.
func coldOutput(src *prng.Source, fp *bitset.Set) *bitset.Set {
	out := fp.Clone()
	pos := fp.Positions()
	for i := src.Intn(len(pos)/20 + 1); i > 0; i-- {
		out.Clear(int(pos[src.Intn(len(pos))]))
	}
	return out.Or(coldCells(src, 10+src.Intn(31), fp))
}

// sweepColdStore is a tiered store shaped like the sweep-cold workload,
// scaled down: segs segments of per devices with random 40–80-cell
// fingerprints of 2048 bits, in 64-entry blocks. The fingerprints come back
// in id order.
func sweepColdStore(tb testing.TB, segs, per int) (*Tiered, []*bitset.Set) {
	tb.Helper()
	t, err := OpenTiered(Config{Dir: tb.TempDir(), FlushEntries: 1 << 20, CompactSegments: segs},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		tb.Fatal(err)
	}
	src := prng.New(0x5C01D)
	var fps []*bitset.Set
	for s := 0; s < segs; s++ {
		for i := 0; i < per; i++ {
			fp := coldCells(src, 40+src.Intn(41), nil)
			t.Add(fmt.Sprintf("dev%06d", len(fps)), fp)
			fps = append(fps, fp)
		}
		if err := t.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if t.SegmentCount() != segs {
		tb.Fatalf("%d segments, want %d", t.SegmentCount(), segs)
	}
	return t, fps
}

// TestBoundedDecideGuard is the machine-independent guard on the bound: on
// an 8-segment store shaped like the sweep-cold workload, a known device's
// Decide abandons at least 90 % of the blocks of the seven segments that do
// not own it, and a stranger's abandons none and carries the exact sweep's
// verdict. When the owning segment's LSH candidates miss the device, the
// match is only known once that segment's exact sweep finds it, so the
// guard then covers the segments after the owner.
func TestBoundedDecideGuard(t *testing.T) {
	const segs, per = 8, 1024
	tb, fps := sweepColdStore(t, segs, per)
	defer tb.Close()
	dense := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i, fp := range fps {
		dense.Add(fmt.Sprintf("dev%06d", i), fp)
	}
	abandoned := obs.C("fingerprint.decide.blocks_abandoned")
	obs.Enable()
	defer obs.Disable()
	src := prng.New(0x6A4D)
	const blocksPerSeg = per / bitset.DefaultSlicedEntries
	settled := 0
	for k := 0; k < 16; k++ {
		i := src.Intn(len(fps))
		q := coldOutput(src, fps[i])
		bounded := segs - 1 // the segments the bound may sweep
		if !slices.Contains(tb.segs[i/per].candidates(fingerprint.NewQuery(q, tb.scheme)), i%per) {
			bounded = segs - 1 - i/per
		} else {
			settled++
		}
		before := abandoned.Value()
		if v := tb.Decide(q); !v.OK() || v.Index != i {
			t.Fatalf("device %d: verdict %+v", i, v)
		}
		if got, want := abandoned.Value()-before, int64(bounded*blocksPerSeg); 10*got < 9*want {
			t.Errorf("device %d: %d of %d blocks abandoned, want ≥ 90 %%", i, got, want)
		}
	}
	if settled < 12 {
		t.Errorf("the owner's candidates found only %d of 16 devices", settled)
	}
	for k := 0; k < 8; k++ {
		q := coldCells(src, 40+src.Intn(41), nil)
		before := abandoned.Value()
		if got, want := tb.Decide(q), dense.Decide(q); got != want {
			t.Errorf("stranger %d: verdict %+v, exact sweep %+v", k, got, want)
		}
		if got := abandoned.Value() - before; got != 0 {
			t.Errorf("stranger %d: %d blocks abandoned, want 0", k, got)
		}
	}
}

// TestStrangerSweepGuard is the machine-independent guard on a stranger's
// sweep: on the store TestBoundedDecideGuard uses, a stranger matches
// nothing, so every segment is swept under its own best so far, and the
// Decide reads out at least one block but at most half of the store's. Its
// verdict equals the dense scan's field for field.
func TestStrangerSweepGuard(t *testing.T) {
	const segs, per = 8, 1024
	tb, fps := sweepColdStore(t, segs, per)
	defer tb.Close()
	dense := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i, fp := range fps {
		dense.Add(fmt.Sprintf("dev%06d", i), fp)
	}
	read := obs.C("fingerprint.decide.blocks_read")
	obs.Enable()
	defer obs.Disable()
	src := prng.New(0x57A6)
	const blocks = segs * per / bitset.DefaultSlicedEntries
	var total int64
	const strangers = 16
	for k := 0; k < strangers; k++ {
		q := coldCells(src, 40+src.Intn(41), nil)
		before := read.Value()
		if got, want := tb.Decide(q), dense.Decide(q); got != want {
			t.Errorf("stranger %d: verdict %+v, dense scan %+v", k, got, want)
		}
		got := read.Value() - before
		if got == 0 || 2*got > blocks {
			t.Errorf("stranger %d: %d of %d blocks read out, want 1 to half", k, got, blocks)
		}
		total += got
	}
	t.Logf("strangers read out %.1f %% of the blocks", 100*float64(total)/float64(strangers*blocks))
}

// TestDecideSpanAttributes: DecideCtx under a request span records what the
// engine did on its store.decide span — segments, blocks_read,
// segments_bounded and blocks_abandoned. A stranger's sweeps read out
// blocks, but fewer than the store holds, and none is bounded; a known
// device's matching candidate arms the bound for every segment, the one
// that holds it included.
func TestDecideSpanAttributes(t *testing.T) {
	const segs, per = 4, 1024
	tb, fps := sweepColdStore(t, segs, per)
	defer tb.Close()
	obs.Enable()
	defer obs.Disable()
	decide := func(q *bitset.Set) map[string]any {
		ctx, root := obs.StartRequest(context.Background(), "identify", "")
		tb.DecideCtx(ctx, q)
		root.End()
		var attrs map[string]any
		root.Trace().Tree().Walk(func(n *obs.SpanTree) {
			if n.Name == "store.decide" {
				attrs = n.Attrs
			}
		})
		for _, k := range []string{"segments", "blocks_read", "segments_bounded", "blocks_abandoned"} {
			if _, ok := attrs[k].(int); !ok {
				t.Fatalf("store.decide attrs %v: no int %q", attrs, k)
			}
		}
		return attrs
	}
	src := prng.New(0x5A7)
	const blocks = segs * per / bitset.DefaultSlicedEntries
	for k := 0; k < 4; k++ {
		a := decide(coldCells(src, 40+src.Intn(41), nil))
		if a["segments"] != segs || a["segments_bounded"] != 0 || a["blocks_abandoned"] != 0 {
			t.Errorf("stranger %d: attrs %v", k, a)
		}
		if r := a["blocks_read"].(int); r == 0 || r >= blocks {
			t.Errorf("stranger %d: blocks_read %d, want 1 to %d", k, r, blocks-1)
		}
	}
	// Device 0 sits in the first segment, and its candidate there arms the
	// bound: all four segments are swept under the threshold.
	a := decide(coldOutput(src, fps[0]))
	if a["segments_bounded"] != segs || a["blocks_abandoned"].(int) == 0 {
		t.Errorf("known device: attrs %v", a)
	}
}

// BenchmarkTieredDecide times Tiered.Decide on a store shaped like the
// sweep-cold workload (8 segments of 4096 devices): known devices, whose
// segments are all swept under the threshold once the owner's candidate
// arms the bound, and strangers, whose every segment is swept under its own
// best so far.
func BenchmarkTieredDecide(b *testing.B) {
	tb, fps := sweepColdStore(b, 8, 4096)
	defer tb.Close()
	src := prng.New(0xBE7C)
	queries := map[string][]*bitset.Set{}
	for k := 0; k < 64; k++ {
		queries["known"] = append(queries["known"], coldOutput(src, fps[src.Intn(len(fps))]))
		queries["stranger"] = append(queries["stranger"], coldCells(src, 40+src.Intn(41), nil))
	}
	for _, kind := range []string{"known", "stranger"} {
		qs := queries[kind]
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb.Decide(qs[i%len(qs)])
			}
		})
	}
}
