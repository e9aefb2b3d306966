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

// TestPcservedCrashRecovery is the durability acceptance test: kill -9
// the daemon in the middle of a concurrent /v1/enroll burst, restart it
// on the same WAL directory, and require that
//
//   - every acknowledged observation survived (acked ⊆ replayed): each
//     session recovers at least the state its last ack reported — as many
//     folded observations, the promotion, and a sequence at or past every
//     acked one (observations after promotion are durable but not folded,
//     so the sequence is what proves they replayed),
//   - nothing was invented (replayed ⊆ sent),
//   - the recovered database is byte-identical to an independent
//     in-process replay of the same WAL — the state is a deterministic
//     function of the log, not of who folds it.
func TestPcservedCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const (
		nbits    = 2048
		sessions = 10
		perObs   = 8
		killAt   = 25 // SIGKILL once this many observations are acked
	)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	walArgs := []string{"-wal.dir", walDir, "-enroll.minobs", "3", "-enroll.patience", "2"}
	ecfg := server.EnrollConfig{
		Dir:         walDir,
		Accumulator: fingerprint.AccumulatorConfig{MinObservations: 3, StablePatience: 2},
	}

	obsFor := func(i, trial int) *bitset.Set {
		es := bitset.New(nbits)
		for j := 0; j < 32; j++ {
			es.Set((i*389 + j*61) % nbits)
		}
		es.Set((i*97 + trial*131 + 7) % nbits) // per-trial noise
		return es
	}

	base, cmd := startPcserved(t, walArgs...)

	// Concurrent enrollment burst, killed mid-flight. Each session sends
	// its observations in order and stops at the first failed request, so
	// per session the recovered state is at least the last acked one and
	// folds at most the observations sent.
	var (
		totalAcked atomic.Int64
		killOnce   sync.Once
		wg         sync.WaitGroup
	)
	acked := make([]server.EnrollState, sessions) // the last ack's reported state
	sent := make([]int, sessions)
	kill := func() {
		killOnce.Do(func() {
			cmd.Process.Signal(syscall.SIGKILL)
		})
	}
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
					return // the kill raced this request; it may or may not be durable
				}
				var st server.EnrollState
				ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&st) == nil
				resp.Body.Close()
				if !ok {
					return
				}
				acked[i] = st
				if totalAcked.Add(1) >= killAt {
					kill()
				}
			}
		}(i)
	}
	wg.Wait()
	kill() // burst finished before the threshold — kill now, recovery still runs
	cmd.Wait()
	if n := totalAcked.Load(); n == 0 {
		t.Fatal("no observation was acked before the kill")
	}

	// Independent in-process recovery: replay the WAL the daemon left
	// behind and capture the fold it deterministically produces.
	ref, err := server.BootDurable(nil, server.Config{}, ecfg)
	if err != nil {
		t.Fatalf("in-process recovery: %v", err)
	}
	var refBytes bytes.Buffer
	if _, err := ref.DB().Export().WriteTo(&refBytes); err != nil {
		t.Fatal(err)
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

	// acked ⊆ replayed ⊆ sent, session by session.
	for i := 0; i < sessions; i++ {
		got, ack := refStates[i], acked[i]
		if got.Observations < ack.Observations || got.Observations > sent[i] {
			t.Errorf("session %d: replayed %d observations, last ack reported %d, sent %d", i, got.Observations, ack.Observations, sent[i])
		}
		if ack.Promoted && !got.Promoted {
			t.Errorf("session %d: acked promotion lost in replay", i)
		}
		if got.Seq < ack.Seq {
			t.Errorf("session %d: replayed to seq %d, last ack at seq %d", i, got.Seq, ack.Seq)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Restart the daemon on the same directory and checkpoint its state;
	// the segments the checkpoint commits must match the in-process replay
	// byte for byte, and every acked-promoted device must still identify.
	base2, cmd2 := startPcserved(t, walArgs...)
	resp, err := http.Post(base2+"/v1/snapshot", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot after recovery: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	committed, err := store.OpenTiered(store.Config{Dir: filepath.Join(walDir, "store")}, store.DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatalf("opening the recovery checkpoint's store: %v", err)
	}
	var ckBytes bytes.Buffer
	_, err = committed.Export().WriteTo(&ckBytes)
	committed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckBytes.Bytes(), refBytes.Bytes()) {
		t.Fatal("recovered daemon state is not byte-identical to the independent WAL replay")
	}
	for i := 0; i < sessions; i++ {
		if !refStates[i].Promoted {
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

	// Graceful shutdown checkpoints + compacts; a third boot must load the
	// checkpoint and land on the same bytes again (replay idempotence
	// through the graceful path).
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
	third, err := server.BootDurable(nil, server.Config{}, ecfg)
	if err != nil {
		t.Fatalf("third boot: %v", err)
	}
	defer third.Close()
	var thirdBytes bytes.Buffer
	if _, err := third.DB().Export().WriteTo(&thirdBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(thirdBytes.Bytes(), refBytes.Bytes()) {
		t.Fatal("checkpoint-then-replay boot diverged from the crash-replay state")
	}
}
