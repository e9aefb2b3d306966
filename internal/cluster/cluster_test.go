package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/server"
	"probablecause/internal/wal"
)

// fastAcc keeps enrollment streams short: converge after 2 unchanged
// observations with at least 3 total.
var fastAcc = fingerprint.AccumulatorConfig{MinObservations: 3, StablePatience: 2}

// testNode is one in-process cluster node: a durable service, its
// replication wrapper, and a real HTTP listener.
type testNode struct {
	t    *testing.T
	id   string
	dir  string
	svc  *server.Service
	node *Node
	srv  *httptest.Server
}

func (n *testNode) url() string { return n.srv.URL }

// kill simulates a crash: in-flight and future connections die; the
// service object is abandoned without checkpoint or graceful close.
func (n *testNode) kill() {
	n.srv.CloseClientConnections()
	n.srv.Close()
}

func (n *testNode) close() {
	n.srv.Close()
	n.node.Close()
	n.svc.Close()
}

// nodeOptions tweak startNode.
type nodeOptions struct {
	minISR   int
	pull     PullConfig
	walStart uint64 // WAL StartSeq for bootstrapped followers
	// cfg, when non-nil, adjusts the server config before boot (partition
	// scoping, worker counts).
	cfg func(*server.Config)
}

func startNode(t *testing.T, id, dir string, opts nodeOptions) *testNode {
	t.Helper()
	scfg := server.Config{}
	if opts.cfg != nil {
		opts.cfg(&scfg)
	}
	svc, err := server.BootDurable(nil, scfg, server.EnrollConfig{
		Dir:         dir,
		Accumulator: fastAcc,
		// Tiny segments so checkpoints actually drop whole segment files.
		WAL: wal.Options{StartSeq: opts.walStart, SegmentBytes: 512},
	})
	if err != nil {
		t.Fatalf("boot %s: %v", id, err)
	}
	node := NewNode(svc, NodeConfig{ID: id, MinISR: opts.minISR, Pull: opts.pull})
	srv := httptest.NewServer(node.Handler())
	return &testNode{t: t, id: id, dir: dir, svc: svc, node: node, srv: srv}
}

// startPrimary boots a primary node with the given ack quorum.
func startPrimary(t *testing.T, minISR int) *testNode {
	t.Helper()
	n := startNode(t, "primary", t.TempDir(), nodeOptions{minISR: minISR})
	n.node.StartPrimary()
	return n
}

// startFollower boots a follower from scratch (empty dir, WAL from 1)
// pulling primary.
func startFollower(t *testing.T, id string, primary *testNode, pull PullConfig) *testNode {
	t.Helper()
	n := startNode(t, id, t.TempDir(), nodeOptions{pull: pull})
	if err := n.node.StartFollower(primary.url()); err != nil {
		t.Fatalf("start follower %s: %v", id, err)
	}
	return n
}

// enrollHTTP posts one observation through url's enroll endpoint and
// returns the decoded state plus HTTP status.
func enrollHTTP(t *testing.T, client *http.Client, url, session, name string, es *bitset.Set) (server.EnrollState, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"session": session, "name": name, "len": es.Len(), "positions": es.Positions(),
	})
	resp, err := client.Post(url+"/v1/enroll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Logf("enroll %s at %s: %v", name, url, err)
		return server.EnrollState{}, 0
	}
	defer resp.Body.Close()
	var st server.EnrollState
	if resp.StatusCode != http.StatusOK {
		// The refusal's body names its cause; a failing test prints it.
		msg, _ := io.ReadAll(resp.Body)
		t.Logf("enroll %s at %s: status %d: %s", name, url, resp.StatusCode, bytes.TrimSpace(msg))
	} else if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding enroll ack: %v", err)
	}
	return st, resp.StatusCode
}

// deviceObs is trial's observation for synthetic device i: a stable
// core plus one per-trial noise cell, so the intersection converges
// onto the core after the second observation.
func deviceObs(n, i, trial int) *bitset.Set {
	es := bitset.New(n)
	for j := 0; j < 6; j++ {
		es.Set(10*i + j)
	}
	es.Set(1000 + (i*31+trial*7)%(n-1000-1))
	return es
}

const obsBits = 4096

// enrollDevice runs device i's enrollment session to convergence
// through url, returning the acked states.
func enrollDevice(t *testing.T, client *http.Client, url string, i int) []server.EnrollState {
	t.Helper()
	var states []server.EnrollState
	for trial := 0; trial < 4; trial++ {
		st, code := enrollHTTP(t, client, url, fmt.Sprintf("sess-%d", i), fmt.Sprintf("dev-%d", i), deviceObs(obsBits, i, trial))
		if code != http.StatusOK {
			t.Fatalf("enroll dev-%d trial %d: status %d", i, trial, code)
		}
		states = append(states, st)
	}
	return states
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func dbBytes(t *testing.T, db *fingerprint.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exportBytes snapshots a service's database encoding.
func exportBytes(t *testing.T, svc *server.Service) []byte {
	t.Helper()
	return dbBytes(t, svc.DB().Export())
}

func TestReplicationFollowersConverge(t *testing.T) {
	primary := startPrimary(t, 1)
	defer primary.close()
	f1 := startFollower(t, "f1", primary, PullConfig{Interval: 5 * time.Millisecond})
	defer f1.close()
	f2 := startFollower(t, "f2", primary, PullConfig{Interval: 5 * time.Millisecond})
	defer f2.close()

	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 5; i++ {
		states := enrollDevice(t, client, primary.url(), i)
		last := states[len(states)-1]
		if !last.Promoted {
			t.Fatalf("dev-%d not promoted after %d observations", i, len(states))
		}
	}

	want := primary.svc.AppliedSeq()
	for _, f := range []*testNode{f1, f2} {
		waitFor(t, 5*time.Second, f.id+" catch-up", func() bool {
			return f.svc.AppliedSeq() >= want
		})
	}
	pdb := exportBytes(t, primary.svc)
	for _, f := range []*testNode{f1, f2} {
		if fdb := exportBytes(t, f.svc); !bytes.Equal(pdb, fdb) {
			t.Fatalf("%s database diverged from primary (%d vs %d bytes)", f.id, len(fdb), len(pdb))
		}
	}

	// Followers serve identify reads with the primary's verdicts.
	for i := 0; i < 5; i++ {
		es := deviceObs(obsBits, i, 9)
		v := f1.svc.DB().Decide(es)
		if !v.OK() || v.Name != fmt.Sprintf("dev-%d", i) {
			t.Fatalf("follower verdict for dev-%d: %+v", i, v)
		}
	}
}

func TestFollowerRefusesMutationsAndReportsReady(t *testing.T) {
	primary := startPrimary(t, 0)
	defer primary.close()
	f := startFollower(t, "f1", primary, PullConfig{Interval: 5 * time.Millisecond})
	defer f.close()

	client := &http.Client{Timeout: 2 * time.Second}
	waitFor(t, 5*time.Second, "follower ready", func() bool { return f.svc.Ready() })

	_, code := enrollHTTP(t, client, f.url(), "s", "dev", deviceObs(obsBits, 0, 0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted enroll with status %d, want 503", code)
	}

	resp, err := client.Get(f.url() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Ready bool   `json:"ready"`
		Role  string `json:"role"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ready.Ready || ready.Role != "follower" {
		t.Fatalf("follower readyz = %d %+v", resp.StatusCode, ready)
	}
}

// TestSnapshotBootstrapAfterCompaction: a follower joining after the
// primary compacted its WAL bootstraps from the shipped segments, pulls
// from the replay floor an unconverged session still needs, and lands on
// the primary's exact bytes — before and after that session converges.
func TestSnapshotBootstrapAfterCompaction(t *testing.T) {
	primary := startPrimary(t, 0)
	defer primary.close()
	client := &http.Client{Timeout: 5 * time.Second}

	// Enroll devices to convergence, open a session that stays unconverged
	// across the checkpoint (so the replay floor sits below the
	// watermark), checkpoint (compacting the WAL), and enroll more so the
	// stream has both pre- and post-checkpoint records.
	for i := 0; i < 3; i++ {
		enrollDevice(t, client, primary.url(), i)
	}
	if _, code := enrollHTTP(t, client, primary.url(), "sess-9", "dev-9", deviceObs(obsBits, 9, 0)); code != http.StatusOK {
		t.Fatalf("enroll dev-9: status %d", code)
	}
	if _, err := primary.svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		enrollDevice(t, client, primary.url(), i)
	}

	// A from-scratch follower cannot pull seq 1 anymore.
	if first := primary.svc.WAL().FirstSeq(); first <= 1 {
		t.Fatalf("checkpoint did not compact the WAL (first seq %d)", first)
	}

	// Bootstrap a follower from the primary's segments.
	dir := t.TempDir()
	meta, err := BootstrapFollowerSegments(context.Background(), filepath.Join(dir, "store"), primary.url(), client)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Floor == 0 || meta.Floor >= meta.Watermark {
		t.Fatalf("bootstrap meta %+v, want 0 < floor < watermark", meta)
	}
	f := startNode(t, "boot", dir, nodeOptions{walStart: meta.Floor, pull: PullConfig{Interval: 5 * time.Millisecond}})
	defer f.close()
	if err := f.node.StartFollower(primary.url()); err != nil {
		t.Fatal(err)
	}

	want := primary.svc.AppliedSeq()
	waitFor(t, 5*time.Second, "bootstrapped follower catch-up", func() bool {
		return f.svc.AppliedSeq() >= want && f.svc.Ready()
	})
	if pdb, fdb := exportBytes(t, primary.svc), exportBytes(t, f.svc); !bytes.Equal(pdb, fdb) {
		t.Fatalf("bootstrapped follower diverged (%d vs %d bytes)", len(fdb), len(pdb))
	}

	// The session opened below the watermark converges on both sides.
	for trial := 1; trial < 4; trial++ {
		if _, code := enrollHTTP(t, client, primary.url(), "sess-9", "dev-9", deviceObs(obsBits, 9, trial)); code != http.StatusOK {
			t.Fatalf("enroll dev-9 trial %d: status %d", trial, code)
		}
	}
	want = primary.svc.AppliedSeq()
	waitFor(t, 5*time.Second, "post-bootstrap catch-up", func() bool { return f.svc.AppliedSeq() >= want })
	if _, ok := f.svc.DB().Get("dev-9"); !ok {
		t.Fatal("session rebuilt from the replay floor never promoted on the follower")
	}
	if pdb, fdb := exportBytes(t, primary.svc), exportBytes(t, f.svc); !bytes.Equal(pdb, fdb) {
		t.Fatalf("follower diverged after the floor session converged (%d vs %d bytes)", len(fdb), len(pdb))
	}
}

func TestCommitGateBlocksWithoutFollowers(t *testing.T) {
	// MinISR=1 with no followers: the enroll ack must gate until a
	// follower acks, so a lone primary times out rather than lying about
	// replication.
	primary := startPrimary(t, 1)
	defer primary.close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := primary.svc.Enroll(ctx, "s", "dev", deviceObs(obsBits, 0, 0))
	if err == nil {
		t.Fatal("enroll acked with no follower at MinISR=1")
	}

	// A follower joining releases subsequent enrolls.
	f := startFollower(t, "f1", primary, PullConfig{Interval: 5 * time.Millisecond})
	defer f.close()
	st, code := enrollHTTP(t, &http.Client{Timeout: 5 * time.Second}, primary.url(), "s2", "dev2", deviceObs(obsBits, 1, 0))
	if code != http.StatusOK {
		t.Fatalf("enroll with follower: status %d", code)
	}
	if f.svc.AppliedSeq() < st.Seq {
		t.Fatalf("gate released at seq %d before follower applied (follower at %d)", st.Seq, f.svc.AppliedSeq())
	}
}
