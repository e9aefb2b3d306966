package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
)

// fastAcc keeps enrollment streams short in tests: converge after 2
// unchanged observations with at least 3 total.
var fastAcc = fingerprint.AccumulatorConfig{MinObservations: 3, StablePatience: 2}

// enrollService builds a Service with durable enrollment in dir.
func enrollService(t *testing.T, dir string) *Service {
	t.Helper()
	s, err := BootDurable(nil, Config{}, EnrollConfig{Dir: dir, Accumulator: fastAcc})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deviceObs is trial's observation for synthetic device i: a stable core
// plus one per-trial noise cell, so the intersection converges onto the
// core after the second observation.
func deviceObs(n, i, trial int) *bitset.Set {
	es := bitset.New(n)
	for j := 0; j < 6; j++ {
		es.Set(10*i + j)
	}
	es.Set(100 + (i*31+trial*7)%(n-100-1))
	return es
}

func mustEnroll(t *testing.T, s *Service, session, name string, es *bitset.Set) EnrollState {
	t.Helper()
	st, err := s.Enroll(context.Background(), session, name, es)
	if err != nil {
		t.Fatalf("enroll %s: %v", session, err)
	}
	return st
}

func dbBytes(t *testing.T, db *fingerprint.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEnrollPromoteIdentify(t *testing.T) {
	const n = 256
	s := enrollService(t, t.TempDir())
	defer s.Close()
	var st EnrollState
	for trial := 0; trial < 8 && !st.Promoted; trial++ {
		st = mustEnroll(t, s, "sess-0", "device-0", deviceObs(n, 0, trial))
	}
	if !st.Converged || !st.Promoted {
		t.Fatalf("no promotion after 8 observations: %+v", st)
	}
	if st.EntryID < 0 {
		t.Fatalf("promoted without an entry id: %+v", st)
	}
	// The converged fingerprint identifies a later output of the device.
	v, _, err := s.Identify(context.Background(), deviceObs(n, 0, 99))
	if err != nil || !v.OK() || v.Name != "device-0" {
		t.Fatalf("identify after promotion: v=%+v err=%v", v, err)
	}
	// Post-promotion observations are dropped deterministically.
	before := s.DB().Len()
	st2 := mustEnroll(t, s, "sess-0", "device-0", deviceObs(n, 0, 100))
	if !st2.Promoted || s.DB().Len() != before {
		t.Fatalf("post-promotion observation changed the database: %+v", st2)
	}
	got, ok, err := s.EnrollStatus("sess-0")
	if err != nil || !ok || !got.Promoted || got.Name != "device-0" {
		t.Fatalf("status: %+v ok=%v err=%v", got, ok, err)
	}
	if _, ok, _ := s.EnrollStatus("nope"); ok {
		t.Fatal("unknown session reported ok")
	}
}

// TestBootDurableSignsReplayBeforeServing: the devices a WAL replay
// promotes into the memtable are signed once while the node boots, so the
// first identify after a restart signs only its query.
func TestBootDurableSignsReplayBeforeServing(t *testing.T) {
	const n, devices = 256, 4
	dir := t.TempDir()
	s := enrollService(t, dir)
	for i := 0; i < devices; i++ {
		var st EnrollState
		for trial := 0; trial < 8 && !st.Promoted; trial++ {
			st = mustEnroll(t, s, fmt.Sprintf("sess-%d", i), fmt.Sprintf("device-%d", i), deviceObs(n, i, trial))
		}
		if !st.Promoted {
			t.Fatalf("device %d not promoted: %+v", i, st)
		}
	}
	s.Close()

	signatures := obs.C("fingerprint.signatures")
	obs.Enable()
	defer obs.Disable()
	before := signatures.Value()
	s = enrollService(t, dir)
	defer s.Close()
	if got := signatures.Value() - before; got != devices {
		t.Errorf("boot replaying %d promotions signed %d, want %d", devices, got, devices)
	}
	before = signatures.Value()
	if v, _, err := s.Identify(context.Background(), deviceObs(n, 2, 99)); err != nil || v.Name != "device-2" {
		t.Fatalf("identify after the restart: %+v, %v", v, err)
	}
	if got := signatures.Value() - before; got != 1 {
		t.Errorf("first identify after the restart signed %d, want 1 (its query)", got)
	}
}

// ackedObs is one acknowledged enrollment: the test-side record of what
// the service promised to make durable.
type ackedObs struct {
	seq       uint64
	session   string
	name      string
	n         int
	positions []uint32
}

// serialFold is an independent reimplementation of the enrollment fold:
// the sequence-ordered acked records applied one at a time through a
// fresh accumulator per session, promoting on convergence. Recovery and
// the live service must both equal this, byte for byte.
func serialFold(t *testing.T, acked []ackedObs, acfg fingerprint.AccumulatorConfig, maxSessions int) *fingerprint.DB {
	t.Helper()
	sort.Slice(acked, func(i, j int) bool { return acked[i].seq < acked[j].seq })
	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	type foldSession struct {
		name     string
		acc      *fingerprint.Accumulator
		promoted bool
	}
	sessions := map[string]*foldSession{}
	for _, r := range acked {
		fs := sessions[r.session]
		if fs == nil {
			if len(sessions) >= maxSessions {
				continue
			}
			acc, err := fingerprint.NewAccumulator(r.n, acfg)
			if err != nil {
				continue
			}
			fs = &foldSession{name: r.name, acc: acc}
			sessions[r.session] = fs
		}
		if fs.promoted || r.name != fs.name || r.n != fs.acc.Len() {
			continue
		}
		if err := fs.acc.Add(bitset.FromPositions(r.n, r.positions)); err != nil {
			continue
		}
		if fs.acc.Converged() {
			fs.promoted = true
			db.Add(fs.name, fs.acc.Fingerprint())
		}
	}
	return db
}

// TestEnrollConcurrentEqualsSerialFold is the core durability property:
// whatever interleaving concurrent enrollment takes, the live database,
// the crash-recovered database, and the serial fold of the acked records
// are all byte-identical.
func TestEnrollConcurrentEqualsSerialFold(t *testing.T) {
	const (
		n        = 256
		devices  = 6
		perTrial = 12
	)
	dir := t.TempDir()
	s := enrollService(t, dir)
	var (
		mu    sync.Mutex
		acked []ackedObs
		wg    sync.WaitGroup
	)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			session := fmt.Sprintf("sess-%d", i)
			name := fmt.Sprintf("device-%d", i)
			for trial := 0; trial < perTrial; trial++ {
				es := deviceObs(n, i, trial)
				st, err := s.Enroll(context.Background(), session, name, es)
				if err != nil {
					t.Errorf("enroll %s trial %d: %v", session, trial, err)
					return
				}
				mu.Lock()
				acked = append(acked, ackedObs{seq: st.Seq, session: session, name: name, n: n, positions: es.Positions()})
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	live := dbBytes(t, s.DB().Export())
	s.Close() // crash: no checkpoint taken, recovery is pure WAL replay

	want := dbBytes(t, serialFold(t, acked, fastAcc, DefaultMaxSessions))
	if !bytes.Equal(live, want) {
		t.Fatal("live database diverged from the serial fold of acked enrollments")
	}
	r := enrollService(t, dir)
	defer r.Close()
	if got := dbBytes(t, r.DB().Export()); !bytes.Equal(got, want) {
		t.Fatal("recovered database diverged from the serial fold of acked enrollments")
	}
	if r.DB().Len() != devices {
		t.Fatalf("recovered %d entries, want %d", r.DB().Len(), devices)
	}
}

// TestSnapshotThenReplayIdempotence pins the double-apply bug: an
// enrollment promoted before the checkpoint watermark must not be
// re-added when the surviving WAL records replay over the snapshot.
func TestSnapshotThenReplayIdempotence(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	s := enrollService(t, dir)

	// Promote dev-a, checkpoint, then leave dev-b mid-flight.
	var st EnrollState
	for trial := 0; trial < 8 && !st.Promoted; trial++ {
		st = mustEnroll(t, s, "sess-a", "dev-a", deviceObs(n, 0, trial))
	}
	if !st.Promoted {
		t.Fatalf("dev-a not promoted: %+v", st)
	}
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Entries != 1 || meta.Watermark != st.Seq+1 {
		t.Fatalf("checkpoint meta %+v (last acked seq %d)", meta, st.Seq)
	}
	bst := mustEnroll(t, s, "sess-b", "dev-b", deviceObs(n, 1, 0))
	bst = mustEnroll(t, s, "sess-b", "dev-b", deviceObs(n, 1, 1))
	s.Close() // crash after the checkpoint, with dev-b unconverged

	r := enrollService(t, dir)
	count := func(svc *Service, name string) int {
		c := 0
		for _, e := range svc.DB().Export().Entries() {
			if e.Name == name {
				c++
			}
		}
		return c
	}
	// dev-a's records replay (the single active segment survives
	// compaction), its accumulator re-converges below the watermark, and
	// the promotion must be suppressed — exactly one entry.
	if got := count(r, "dev-a"); got != 1 {
		t.Fatalf("dev-a enrolled %d times after snapshot-then-replay, want exactly 1", got)
	}
	ast, ok, err := r.EnrollStatus("sess-a")
	if err != nil || !ok || !ast.Promoted {
		t.Fatalf("dev-a session after recovery: %+v ok=%v err=%v", ast, ok, err)
	}
	rb, ok, err := r.EnrollStatus("sess-b")
	if err != nil || !ok {
		t.Fatalf("dev-b session lost: ok=%v err=%v", ok, err)
	}
	if rb.Observations != bst.Observations || rb.Promoted {
		t.Fatalf("dev-b session after recovery: %+v, want %d observations unpromoted", rb, bst.Observations)
	}
	// Finish dev-b: it converges above the watermark and promotes once.
	for trial := 2; trial < 10 && !rb.Promoted; trial++ {
		rb = mustEnroll(t, r, "sess-b", "dev-b", deviceObs(n, 1, trial))
	}
	if !rb.Promoted || count(r, "dev-b") != 1 || r.DB().Len() != 2 {
		t.Fatalf("dev-b after completion: %+v, %d entries", rb, r.DB().Len())
	}
	r.Close()

	// A second crash-recovery cycle stays idempotent.
	r2 := enrollService(t, dir)
	defer r2.Close()
	if count(r2, "dev-a") != 1 || count(r2, "dev-b") != 1 || r2.DB().Len() != 2 {
		t.Fatalf("second recovery diverged: %d entries", r2.DB().Len())
	}
}

func TestEnrollValidation(t *testing.T) {
	const n = 64
	plain, err := New(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Enroll(context.Background(), "s", "d", bitset.New(n)); err != ErrEnrollmentDisabled {
		t.Fatalf("enroll on plain service: %v", err)
	}
	if _, err := plain.Checkpoint(); err != ErrEnrollmentDisabled {
		t.Fatalf("checkpoint on plain service: %v", err)
	}

	s, err := BootDurable(nil, Config{}, EnrollConfig{Dir: t.TempDir(), Accumulator: fastAcc, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Enroll(context.Background(), "", "d", bitset.New(n)); err == nil {
		t.Fatal("empty session accepted")
	}
	if _, err := s.Enroll(context.Background(), "s", "", bitset.New(n)); err == nil {
		t.Fatal("empty name accepted")
	}
	mustEnroll(t, s, "s1", "dev-1", bitset.New(n))
	if _, err := s.Enroll(context.Background(), "s1", "dev-2", bitset.New(n)); !strings.Contains(fmt.Sprint(err), ErrSessionName.Error()) {
		t.Fatalf("name conflict: %v", err)
	}
	if _, err := s.Enroll(context.Background(), "s1", "dev-1", bitset.New(n/2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := s.Enroll(context.Background(), "s2", "dev-2", bitset.New(n)); !strings.Contains(fmt.Sprint(err), ErrSessionLimit.Error()) {
		t.Fatalf("session limit: %v", err)
	}
	stats := s.EnrollStats()
	if !stats.Enabled || stats.Sessions != 1 || stats.AppliedSeq == 0 {
		t.Fatalf("enroll stats %+v", stats)
	}
}

func TestEnrollHTTP(t *testing.T) {
	const n = 256
	s := enrollService(t, t.TempDir())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	var st EnrollState
	for trial := 0; trial < 8 && !st.Promoted; trial++ {
		es := deviceObs(n, 0, trial)
		body, _ := json.Marshal(enrollRequestJSON{Session: "web-1", Name: "dev-web", Len: n, Positions: es.Positions()})
		code, blob := post("/v1/enroll", string(body))
		if code != http.StatusOK {
			t.Fatalf("enroll trial %d: %d %s", trial, code, blob)
		}
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Promoted {
		t.Fatalf("no promotion over HTTP: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/v1/enroll/web-1/status")
	if err != nil {
		t.Fatal(err)
	}
	var got EnrollState
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !got.Promoted || got.Name != "dev-web" {
		t.Fatalf("status over HTTP: %d %+v", resp.StatusCode, got)
	}
	if resp, err := http.Get(ts.URL + "/v1/enroll/missing/status"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	if code, blob := post("/v1/enroll", `{"session":"web-1","name":"other","len":256,"positions":[]}`); code != http.StatusConflict {
		t.Fatalf("name conflict over HTTP: %d %s", code, blob)
	}
	code, blob := post("/v1/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, blob)
	}
	var meta struct {
		Watermark uint64 `json:"wal_watermark"`
		Entries   int    `json:"entries"`
	}
	if err := json.Unmarshal(blob, &meta); err != nil || meta.Entries != 1 || meta.Watermark == 0 {
		t.Fatalf("snapshot meta %s: %v", blob, err)
	}

	// Enrollment endpoints without the subsystem → 503.
	plain, err := New(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	tp := httptest.NewServer(plain.Handler())
	defer tp.Close()
	resp, err = http.Post(tp.URL+"/v1/enroll", "application/json", strings.NewReader(`{"session":"x","name":"y","len":8,"positions":[]}`))
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("enroll without subsystem: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}
