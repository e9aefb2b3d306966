package probablecause_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/server"
	"probablecause/internal/store"
)

// TestPcservedStoreCrashRecovery extends the durability acceptance test to
// the tiered segment store's flush and compaction: the daemon runs with
// aggressive flush/compaction thresholds, and each matrix case either
// SIGKILLs it mid-burst or arms a PCSTORE_CRASH chaos point so the engine
// hard-exits in the middle of a flush or compaction, on either side of the
// manifest commit. Recovery must then satisfy the same contract as
// TestPcservedCrashRecovery:
//
//   - acked ⊆ replayed ⊆ sent, session by session,
//   - no device is enrolled twice across the memtable/segment boundary
//     (a flush that died after committing must not be replayed on top of
//     its own segment),
//   - the recovered database is byte-identical to an independent
//     in-process replay of the WAL over the same segment directory.
func TestPcservedStoreCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cases := []struct {
		name       string
		crashPoint string // PCSTORE_CRASH value; empty = SIGKILL mid-burst
	}{
		{"sigkill", ""},
		{"flush-before-commit", "flush-before-commit"},
		{"flush-after-commit", "flush-after-commit"},
		{"compact-before-commit", "compact-before-commit"},
		{"compact-after-commit", "compact-after-commit"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runStoreCrashCase(t, tc.crashPoint) })
	}
}

func runStoreCrashCase(t *testing.T, crashPoint string) {
	const (
		nbits    = 2048
		sessions = 10
		perObs   = 8
		killAt   = 25
	)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	storeDir := filepath.Join(walDir, "store")
	// Flush every 2 promotions and compact above 2 segments, so a 10-device
	// burst crosses every chaos point several times over.
	args := []string{
		"-wal.dir", walDir,
		"-store.flush-entries", "2",
		"-store.compact-segments", "2",
		"-enroll.minobs", "3", "-enroll.patience", "2",
	}
	storeCfg := store.Config{Backend: store.BackendTiered, Dir: storeDir, FlushEntries: 2, CompactSegments: 2}
	ecfg := server.EnrollConfig{
		Dir:         walDir,
		Accumulator: fingerprint.AccumulatorConfig{MinObservations: 3, StablePatience: 2},
	}
	var env []string
	if crashPoint != "" {
		env = []string{"PCSTORE_CRASH=" + crashPoint}
	}

	obsFor := func(i, trial int) *bitset.Set {
		es := bitset.New(nbits)
		for j := 0; j < 32; j++ {
			es.Set((i*389 + j*61) % nbits)
		}
		es.Set((i*97 + trial*131 + 7) % nbits)
		return es
	}

	base, cmd := startPcservedEnv(t, env, args...)

	var (
		totalAcked atomic.Int64
		killOnce   sync.Once
		wg         sync.WaitGroup
	)
	acked := make([]int, sessions)
	sent := make([]int, sessions)
	kill := func() { killOnce.Do(func() { cmd.Process.Signal(syscall.SIGKILL) }) }
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for trial := 0; trial < perObs; trial++ {
				body, _ := json.Marshal(map[string]any{
					"session":   fmt.Sprintf("sess-%d", i),
					"name":      fmt.Sprintf("device-%d", i),
					"len":       nbits,
					"positions": obsFor(i, trial).Positions(),
				})
				sent[i]++
				resp, err := http.Post(base+"/v1/enroll", "application/json", bytes.NewReader(body))
				if err != nil {
					return // the crash raced this request
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if !ok {
					return
				}
				acked[i]++
				if crashPoint == "" && totalAcked.Add(1) >= killAt {
					kill()
				} else if crashPoint != "" {
					totalAcked.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if crashPoint != "" {
		// The chaos point must actually fire. Flush points die during the
		// burst's background auto-flushes; compaction points need the
		// segment count to cross the threshold, so keep promoting fresh
		// throwaway sessions (each promotion + forced /v1/snapshot lays
		// down another segment) until the armed exit triggers. The extra
		// records ride the same WAL, so the oracle fold below sees them too.
		deadline := time.Now().Add(15 * time.Second)
		for extra := 0; time.Now().Before(deadline); extra++ {
			alive := true
			for trial := 0; trial < 4 && alive; trial++ {
				body, _ := json.Marshal(map[string]any{
					"session":   fmt.Sprintf("extra-%d", extra),
					"name":      fmt.Sprintf("device-extra-%d", extra),
					"len":       nbits,
					"positions": obsFor(100+extra, trial).Positions(),
				})
				resp, err := http.Post(base+"/v1/enroll", "application/json", bytes.NewReader(body))
				if err != nil {
					alive = false
					break
				}
				resp.Body.Close()
			}
			if alive {
				if resp, err := http.Post(base+"/v1/snapshot", "application/json", nil); err == nil {
					resp.Body.Close()
				} else {
					alive = false
				}
			}
			if !alive {
				break // refused connection: the process is gone or going
			}
			time.Sleep(20 * time.Millisecond)
		}
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("chaos point %q never fired: daemon still alive after burst + forced checkpoints", crashPoint)
		}
	} else {
		kill()
		cmd.Wait()
	}
	if n := totalAcked.Load(); n == 0 {
		t.Fatal("no observation was acked before the crash")
	}

	// Independent in-process recovery over the same directories: open the
	// tiered store (committed segments + manifest watermark) and replay the
	// WAL suffix. This fold is the oracle the daemon must match.
	ref, err := server.BootDurable(nil, server.Config{Store: storeCfg}, ecfg)
	if err != nil {
		t.Fatalf("in-process recovery (%s): %v", crashPoint, err)
	}
	var refBytes bytes.Buffer
	if _, err := ref.DB().Export().WriteTo(&refBytes); err != nil {
		t.Fatal(err)
	}
	// No double enrollment across the memtable/segment boundary: each
	// device appears at most once among the live entries.
	seen := map[string]int{}
	for _, e := range ref.DB().ExportIDs() {
		seen[e.Name]++
		if seen[e.Name] > 1 {
			t.Errorf("device %q enrolled %d times after recovery", e.Name, seen[e.Name])
		}
	}
	refStates := make([]server.EnrollState, sessions)
	for i := range refStates {
		st, ok, err := ref.EnrollStatus(fmt.Sprintf("sess-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			refStates[i] = st
		}
	}
	ref.Close()

	// acked ⊆ replayed, session by session — with the tiered twist that a
	// promoted session's durable effect is its enrolled device, not its
	// observation counter: checkpoints truncate promoted sessions' WAL
	// records (only unconverged sessions pin the keep floor), so after a
	// compaction the counter legitimately undercounts. A device present in
	// the recovered database accounts for every acked observation of its
	// session; a session with no enrolled device must still hold all of its
	// acked records in the WAL.
	enrolled := make([]bool, sessions)
	for i := 0; i < sessions; i++ {
		enrolled[i] = seen[fmt.Sprintf("device-%d", i)] > 0
		got := refStates[i].Observations
		if got > sent[i] {
			t.Errorf("session %d: replayed %d observations but only %d were sent", i, got, sent[i])
		}
		if !enrolled[i] && got < acked[i] {
			t.Errorf("session %d: unpromoted, replayed %d observations, acked %d, sent %d", i, got, acked[i], sent[i])
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Restart the daemon (chaos disarmed) on the same directories; its
	// served state must equal the oracle fold, and promoted devices must
	// still identify off the recovered segments.
	base2, cmd2 := startPcserved(t, args...)
	for i := 0; i < sessions; i++ {
		if !enrolled[i] {
			continue
		}
		body, _ := json.Marshal(map[string]any{"len": nbits, "positions": obsFor(i, 999).Positions()})
		resp, err := http.Post(base2+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Match bool   `json:"match"`
			Name  string `json:"name"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !v.Match || v.Name != fmt.Sprintf("device-%d", i) {
			t.Errorf("promoted device-%d no longer identifies after recovery: %+v", i, v)
		}
	}
	// Graceful drain checkpoints the store; a fresh in-process boot over the
	// flushed segments must land on the oracle bytes again — byte-identical
	// recovery through flush, compaction, and replay.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pcserved exit after recovery: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pcserved did not drain within 15s of SIGTERM")
	}
	third, err := server.BootDurable(nil, server.Config{Store: storeCfg}, ecfg)
	if err != nil {
		t.Fatalf("third boot: %v", err)
	}
	defer third.Close()
	var thirdBytes bytes.Buffer
	if _, err := third.DB().Export().WriteTo(&thirdBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(thirdBytes.Bytes(), refBytes.Bytes()) {
		t.Fatalf("checkpoint-then-replay boot diverged from the crash-replay oracle (%s)", crashPoint)
	}
}
