package cluster

import (
	"bytes"
	"context"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"probablecause/internal/server"
)

// startTieredNode boots a node with a tiny flush threshold, so enrollment
// actually lays down segment files.
func startTieredNode(t *testing.T, id, dir string, opts nodeOptions) *testNode {
	t.Helper()
	opts.cfg = func(c *server.Config) { c.Store.FlushEntries, c.Store.CompactSegments = 4, 4 }
	return startNode(t, id, dir, opts)
}

// TestSegmentBootstrapTieredFollower proves the segment-shipping bootstrap
// path end to end: a tiered primary flushes its corpus into committed
// segment files, a fresh follower downloads them (plus the manifest, last)
// through /v1/repl/segments, verifies them, recovers the watermark from the
// manifest, and then catches up over the normal WAL pull — landing on the
// primary's exact database bytes without ever transferring a monolithic
// export.
func TestSegmentBootstrapTieredFollower(t *testing.T) {
	primary := startTieredNode(t, "primary", t.TempDir(), nodeOptions{})
	primary.node.StartPrimary()
	defer primary.close()
	client := &http.Client{Timeout: 5 * time.Second}

	// Converge several devices, checkpoint (flush to segments + compact the
	// WAL), then converge more so bootstrap spans flushed and live state.
	for i := 0; i < 4; i++ {
		enrollDevice(t, client, primary.url(), i)
	}
	if _, err := primary.svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		enrollDevice(t, client, primary.url(), i)
	}

	fdir := t.TempDir()
	meta, err := BootstrapFollowerSegments(context.Background(), filepath.Join(fdir, "store"), primary.url(), client)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Watermark == 0 || meta.Floor == 0 || meta.Watermark < meta.Floor {
		t.Fatalf("bootstrap meta %+v", meta)
	}

	f := startTieredNode(t, "boot", fdir, nodeOptions{walStart: meta.Floor, pull: PullConfig{Interval: 5 * time.Millisecond}})
	defer f.close()
	if err := f.node.StartFollower(primary.url()); err != nil {
		t.Fatal(err)
	}
	want := primary.svc.AppliedSeq()
	waitFor(t, 5*time.Second, "segment-bootstrapped follower catch-up", func() bool {
		return f.svc.AppliedSeq() >= want && f.svc.Ready()
	})
	if pdb, fdb := exportBytes(t, primary.svc), exportBytes(t, f.svc); !bytes.Equal(pdb, fdb) {
		t.Fatalf("segment-bootstrapped follower diverged (%d vs %d bytes)", len(fdb), len(pdb))
	}
	// The follower is genuinely tiered: the shipped segments are its base,
	// not a replayed in-memory copy.
	if sc, ok := f.svc.DB().(interface{ SegmentCount() int }); !ok || sc.SegmentCount() == 0 {
		t.Fatal("follower is not serving from shipped segments")
	}

	// Replication keeps flowing on top of the shipped base.
	enrollDevice(t, client, primary.url(), 6)
	want = primary.svc.AppliedSeq()
	waitFor(t, 5*time.Second, "post-bootstrap replication", func() bool {
		return f.svc.AppliedSeq() >= want
	})
	if pdb, fdb := exportBytes(t, primary.svc), exportBytes(t, f.svc); !bytes.Equal(pdb, fdb) {
		t.Fatal("follower diverged after post-bootstrap enrollment")
	}
}
