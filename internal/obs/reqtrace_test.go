package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func enableForTest(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	h := FormatTraceHeader(0xDEADBEEF12345678, 0x0123456789ABCDEF)
	tid, sid, ok := ParseTraceHeader(h)
	if !ok || tid != 0xDEADBEEF12345678 || sid != 0x0123456789ABCDEF {
		t.Fatalf("round trip %q → (%x, %x, %v)", h, tid, sid, ok)
	}
	for _, bad := range []string{
		"", "zz", "123", // too short / not hex
		"00000000000000000-0000000000000001",                // 17-digit trace id
		"0000000000000000-0000000000000001",                 // zero trace id
		"g000000000000000-0000000000000001",                 // non-hex
		"0000000000000001-123",                              // short span id
		"0000000000000001-00000000000000010",                // long span id
		strings.Repeat("0", 15) + "1-" + " 000000000000001", // whitespace
	} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", bad)
		}
	}
	// Bare trace id (no span part) is valid.
	if tid, sid, ok := ParseTraceHeader("00000000000000ab"); !ok || tid != 0xab || sid != 0 {
		t.Errorf("bare trace id → (%x, %x, %v)", tid, sid, ok)
	}
}

func TestStartRequestOffIsNil(t *testing.T) {
	Disable()
	ctx, root := StartRequest(context.Background(), "identify", "")
	if root != nil {
		t.Fatal("StartRequest returned a span with instrumentation off")
	}
	// Every nil-receiver method must be a no-op, not a panic.
	root.SetAttr("k", 1)
	c := root.Child("child")
	c.End()
	root.End()
	if root.Header() != "" || root.Name() != "" || root.Trace() != nil {
		t.Error("nil span accessors should return zero values")
	}
	if SpanFrom(ctx) != nil {
		t.Error("context should carry no span when instrumentation is off")
	}
}

func TestRequestSpanTree(t *testing.T) {
	enableForTest(t)
	ctx, root := StartRequest(context.Background(), "identify", "")
	if root == nil {
		t.Fatal("no root span with instrumentation on")
	}
	q := root.Child("queue.wait")
	q.End()
	bctx, b := StartChild(ctx, "batch")
	b.SetAttr("batch_size", 3)
	for i := 0; i < 2; i++ {
		s := SpanFrom(bctx).Child("shard.identify")
		s.SetAttr("shard", i)
		s.End()
	}
	d := b.Child("decide")
	d.End()
	b.End()
	root.End()

	tree := root.Trace().Tree()
	if tree == nil || tree.Name != "identify" {
		t.Fatalf("tree root = %+v", tree)
	}
	counts := map[string]int{}
	tree.Walk(func(n *SpanTree) { counts[n.Name]++ })
	want := map[string]int{"identify": 1, "queue.wait": 1, "batch": 1, "shard.identify": 2, "decide": 1}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("span %q appears %d times, want %d (tree %+v)", name, counts[name], n, counts)
		}
	}
	// Nesting: shard.identify and decide are children of batch, not root.
	var batch *SpanTree
	for _, c := range tree.Children {
		if c.Name == "batch" {
			batch = c
		}
	}
	if batch == nil || len(batch.Children) != 3 {
		t.Fatalf("batch node = %+v", batch)
	}
	if batch.Attrs["batch_size"] != 3 {
		t.Errorf("batch attrs = %v", batch.Attrs)
	}
	if root.Trace().DurNS() <= 0 {
		t.Error("root duration not recorded")
	}
}

func TestStartRequestAdoptsHeader(t *testing.T) {
	enableForTest(t)
	h := FormatTraceHeader(0xABCDEF, 0x123456)
	_, root := StartRequest(context.Background(), "identify", h)
	defer root.End()
	if got := root.Trace().ID(); got != "0000000000abcdef" {
		t.Fatalf("trace id %q did not adopt the header's", got)
	}
	tree := root.Trace().Tree()
	if tree.Attrs["remote_parent"] != "0000000000123456" {
		t.Errorf("remote parent attr missing: %v", tree.Attrs)
	}
	// The response header names this trace but the server-side root span.
	tid, sid, ok := ParseTraceHeader(root.Header())
	if !ok || tid != 0xABCDEF || sid == 0x123456 {
		t.Errorf("response header %q", root.Header())
	}
}

// TestTraceConcurrentSpans hammers one trace from many goroutines; run
// under -race this is the data-safety check for cross-goroutine span
// creation (the batcher and shard fan-out do exactly this).
func TestTraceConcurrentSpans(t *testing.T) {
	enableForTest(t)
	ctx, root := StartRequest(context.Background(), "load", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, c := StartChild(ctx, "work")
				c.SetAttr("g", g)
				c.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	n := 0
	root.Trace().Tree().Walk(func(*SpanTree) { n++ })
	if n != 1+8*50 {
		t.Fatalf("tree has %d spans, want %d", n, 1+8*50)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	const n = 10000
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		id := newID()
		if id == 0 || seen[id] {
			t.Fatalf("id %x duplicated or zero at %d", id, i)
		}
		seen[id] = true
	}
}

func TestRequestTreeFilesToTracer(t *testing.T) {
	enableForTest(t)
	EnableTracing()
	defer ResetTracing()
	_, root := StartRequest(context.Background(), "identify", "")
	root.Child("queue.wait").End()
	root.End()
	var names []string
	for _, r := range TraceRecords() {
		names = append(names, r.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "identify") || !strings.Contains(joined, "queue.wait") {
		t.Fatalf("chrome tracer records %v missing request spans", names)
	}
}

func TestSpanDoubleEndKeepsFirstDuration(t *testing.T) {
	enableForTest(t)
	_, root := StartRequest(context.Background(), "r", "")
	root.End()
	d1 := root.Trace().DurNS()
	time.Sleep(2 * time.Millisecond)
	root.End()
	if d2 := root.Trace().DurNS(); d2 != d1 {
		t.Fatalf("double End changed duration %d → %d", d1, d2)
	}
}
