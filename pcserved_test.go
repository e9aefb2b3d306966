package probablecause_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/samplefile"
)

// startPcserved builds and launches the server on an ephemeral port,
// returning its base URL and the running command.
func startPcserved(t *testing.T, args ...string) (string, *exec.Cmd) {
	t.Helper()
	return startPcservedEnv(t, nil, args...)
}

// startPcservedEnv is startPcserved with extra environment entries (e.g.
// OBS_REPORT) appended to the inherited environment.
func startPcservedEnv(t *testing.T, env []string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(buildPcserved(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return "http://" + addr, cmd
		}
	}
	t.Fatalf("pcserved never reported its address (scan err: %v)", sc.Err())
	return "", nil
}

// buildPcserved compiles the daemon into the test's temp directory.
func buildPcserved(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pcserved")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pcserved").CombinedOutput(); err != nil {
		t.Fatalf("building pcserved: %v\n%s", err, out)
	}
	return bin
}

// TestPcservedSIGTERMAtStartup: a SIGTERM sent the moment pcserved announces
// its address must get the graceful drain — exit 0, and on a durable node
// the drain checkpoint — never the default kill, in all three modes. The
// window between the announcement and serving is narrow, so each mode
// starts repeatedly.
func TestPcservedSIGTERMAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildPcserved(t)
	dead := "http://127.0.0.1:1" // nothing listens; probes fail fast
	modes := []struct {
		name string
		args func() []string
		runs int
		want string
	}{
		{"serve", func() []string { return []string{"-wal.dir", t.TempDir()} }, 10, "pcserved: checkpointed 0 entries"},
		{"router", func() []string { return []string{"-mode=router", "-router.backends", dead} }, 3, "terminated, draining"},
		{"scatter", func() []string { return []string{"-mode=router", "-partitions", "p0=" + dead} }, 3, "terminated, draining"},
	}
	for _, m := range modes {
		for run := 0; run < m.runs; run++ {
			cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, m.args()...)...)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = cmd.Stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				out.WriteString(sc.Text() + "\n")
				if strings.Contains(sc.Text(), "listening on ") {
					if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			for sc.Scan() {
				out.WriteString(sc.Text() + "\n")
			}
			if err := cmd.Wait(); err != nil || !strings.Contains(out.String(), m.want) {
				t.Fatalf("%s run %d: SIGTERM at start-up gave %v, want exit 0 and %q; output:\n%s", m.name, run, err, m.want, out.String())
			}
		}
	}
}

// TestPcservedEndToEnd boots the daemon on a real socket, identifies a
// device, registers a new one over the API, drains on SIGTERM, and checks
// the mutated database landed in the snapshot.
func TestPcservedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	const nbits = 2048
	mkfp := func(seed int) *bitset.Set {
		fp := bitset.New(nbits)
		for j := 0; j < 32; j++ {
			fp.Set((seed*389 + j*61) % nbits)
		}
		return fp
	}
	seed := fingerprint.NewDB(fingerprint.DefaultThreshold)
	seed.Add("alpha", mkfp(1))
	seed.Add("beta", mkfp(2))
	dbPath := filepath.Join(dir, "fleet.pcdb")
	if err := samplefile.SaveDB(dbPath, seed); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snap.pcdb")

	base, cmd := startPcserved(t, "-db", dbPath, "-snapshot", snapPath, "-cache", "16")

	post := func(path string, body any) (int, []byte) {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Identify a noisy output of beta.
	query := mkfp(2)
	query.Set(5)
	query.Set(7)
	code, body := post("/v1/identify", map[string]any{"len": nbits, "positions": query.Positions()})
	if code != http.StatusOK {
		t.Fatalf("identify: %d %s", code, body)
	}
	var verdict struct {
		Match bool   `json:"match"`
		Name  string `json:"name"`
	}
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatal(err)
	}
	if !verdict.Match || verdict.Name != "beta" {
		t.Fatalf("identify verdict: %s", body)
	}

	// Register gamma over the API.
	code, body = post("/v1/db", map[string]any{"name": "gamma", "len": nbits, "positions": mkfp(3).Positions()})
	if code != http.StatusOK {
		t.Fatalf("db add: %d %s", code, body)
	}

	// Drain and snapshot.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pcserved exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pcserved did not drain within 15s of SIGTERM")
	}

	snap, err := samplefile.LoadDB(snapPath)
	if err != nil {
		t.Fatalf("loading snapshot: %v", err)
	}
	if snap.Len() != 3 {
		t.Fatalf("snapshot has %d entries, want 3", snap.Len())
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("snapshot missing %s (entries: %s)", name, snapNames(snap))
		}
	}
}

func snapNames(db *fingerprint.DB) string {
	var names []string
	for _, e := range db.Entries() {
		names = append(names, e.Name)
	}
	return fmt.Sprint(names)
}
