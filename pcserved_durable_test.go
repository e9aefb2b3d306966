package probablecause_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"probablecause/internal/server"
	"probablecause/internal/store"
)

// The restart contract of pcserved's seed and durable state: a -snapshot
// taken on a durable node holds its entries, committed store state
// overrides a -db or -snapshot seed on every later boot, and every boot
// serves -threshold (default fingerprint.DefaultThreshold), never the
// float32 threshold a PCDB01 header carries.

const durNBits = 2048

// durFP is device i's fingerprint: 32 cells of a durNBits-bit output.
func durFP(i int) *bitset.Set {
	fp := bitset.New(durNBits)
	for j := 0; j < 32; j++ {
		fp.Set((i*389 + j*61) % durNBits)
	}
	return fp
}

// durDo sends one JSON request to a running daemon and decodes the reply
// into out (when non-nil), failing the test on a non-200 status.
func durDo(t *testing.T, method, url string, body, out any) {
	t.Helper()
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, buf.Bytes())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %v (%s)", method, url, err, buf.Bytes())
		}
	}
}

func durAdd(t *testing.T, base, name string, fp *bitset.Set) {
	t.Helper()
	durDo(t, http.MethodPost, base+"/v1/db", map[string]any{"name": name, "len": fp.Len(), "positions": fp.Positions()}, nil)
}

func durIdentify(t *testing.T, base string, es *bitset.Set) server.VerdictJSON {
	t.Helper()
	var v server.VerdictJSON
	durDo(t, http.MethodPost, base+"/v1/identify", map[string]any{"len": es.Len(), "positions": es.Positions()}, &v)
	return v
}

func durStats(t *testing.T, base string) server.Stats {
	t.Helper()
	var st server.Stats
	durDo(t, http.MethodGet, base+"/v1/db", nil, &st)
	return st
}

// durStop drains a daemon with SIGTERM and requires a clean exit.
func durStop(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
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
}

// durCheckServes requires the daemon to serve exactly fps's entries from
// the segment store, each identifying as itself.
func durCheckServes(t *testing.T, base string, fps map[string]*bitset.Set) {
	t.Helper()
	st := durStats(t, base)
	if st.Entries != len(fps) || st.Store.Backend != "tiered" {
		t.Fatalf("/v1/db reads %d entries on the %q store, want %d on the tiered store", st.Entries, st.Store.Backend, len(fps))
	}
	for name, fp := range fps {
		q := fp.Clone()
		q.Set(5)
		if v := durIdentify(t, base, q); !v.Match || v.Name != name {
			t.Fatalf("%s no longer identifies: %+v", name, v)
		}
	}
}

// TestPcservedSnapshotOnDurableNode: -snapshot on a -wal.dir node exports
// the database before the store closes, and the restart on the same flags
// serves the committed entries rather than refusing the snapshot seed.
func TestPcservedSnapshotOnDurableNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.pcdb")
	args := []string{"-wal.dir", filepath.Join(dir, "wal"), "-snapshot", snapPath}
	fps := map[string]*bitset.Set{"alpha": durFP(1), "beta": durFP(2)}

	base, cmd := startPcserved(t, args...)
	durAdd(t, base, "alpha", fps["alpha"])
	durAdd(t, base, "beta", fps["beta"])
	durStop(t, cmd)

	snap, err := samplefile.LoadDB(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 {
		t.Fatalf("snapshot holds %d entries (%s), want 2", snap.Len(), snapNames(snap))
	}
	for name, fp := range fps {
		if got, ok := snap.Get(name); !ok || !got.Equal(fp) {
			t.Fatalf("snapshot lost or changed %s (entries: %s)", name, snapNames(snap))
		}
	}

	base, cmd = startPcserved(t, args...)
	durCheckServes(t, base, fps)
	durStop(t, cmd)
}

// TestPcservedSnapshotReadOnlyToSeed: a durable node reads -snapshot only
// when it will seed. A restart whose store has committed state boots and
// serves it although the snapshot file no longer decodes; a first boot on
// the same bytes still fails. (Tests run as root, so the file is made
// undecodable, not unreadable.)
func TestPcservedSnapshotReadOnlyToSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.pcdb")
	garbage := []byte("PCDB01 torn: not a database\n")
	corrupt := func() {
		t.Helper()
		if err := os.WriteFile(snapPath, garbage, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := samplefile.LoadDB(snapPath); err == nil {
			t.Fatal("the corrupted snapshot decodes")
		}
	}
	args := []string{"-wal.dir", filepath.Join(dir, "wal"), "-snapshot", snapPath}
	fps := map[string]*bitset.Set{"alpha": durFP(1), "beta": durFP(2)}

	base, cmd := startPcserved(t, args...)
	durAdd(t, base, "alpha", fps["alpha"])
	durAdd(t, base, "beta", fps["beta"])
	durStop(t, cmd)

	corrupt()
	base, cmd = startPcserved(t, args...)
	durCheckServes(t, base, fps)
	durStop(t, cmd)

	// The stop saved a good snapshot; corrupt it again for a node whose
	// empty store would seed from it.
	corrupt()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fresh := []string{"-addr", "127.0.0.1:0", "-wal.dir", filepath.Join(dir, "wal2"), "-snapshot", snapPath}
	out, err := exec.CommandContext(ctx, buildPcserved(t), fresh...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || strings.Contains(string(out), "listening on") {
		t.Errorf("first boot on an undecodable -snapshot: %v, output %q; want exit 1 before listening", err, out)
	}
}

// TestPcservedSeedOverriddenByStore: a second boot with the same -db and
// -wal.dir serves what the first one committed — the seed plus an
// enrolled device — with no entry seeded twice.
func TestPcservedSeedOverriddenByStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	seed := fingerprint.NewDB(fingerprint.DefaultThreshold)
	seed.Add("alpha", durFP(1))
	seed.Add("beta", durFP(2))
	dbPath := filepath.Join(dir, "fleet.pcdb")
	if err := samplefile.SaveDB(dbPath, seed); err != nil {
		t.Fatal(err)
	}
	args := []string{"-db", dbPath, "-wal.dir", filepath.Join(dir, "wal"), "-enroll.minobs", "3", "-enroll.patience", "2"}
	fps := map[string]*bitset.Set{"alpha": durFP(1), "beta": durFP(2), "gamma": durFP(3)}

	base, cmd := startPcserved(t, args...)
	var st server.EnrollState
	for trial := 0; trial < 8 && !st.Promoted; trial++ {
		es := durFP(3)
		es.Set(1000 + trial)
		durDo(t, http.MethodPost, base+"/v1/enroll", map[string]any{
			"session": "s-gamma", "name": "gamma", "len": durNBits, "positions": es.Positions(),
		}, &st)
	}
	if !st.Promoted {
		t.Fatalf("gamma not promoted: %+v", st)
	}
	durCheckServes(t, base, fps)
	durStop(t, cmd)

	base, cmd = startPcserved(t, args...)
	durCheckServes(t, base, fps)
	durStop(t, cmd)
}

// TestPcservedThresholdFromFlag: a query at distance exactly the default
// threshold (one of a 10-cell device's cells missing) is not a match, and
// stays one after a graceful restart — the restart serves the flag's
// threshold, not the float32 one a checkpoint or snapshot file stores.
func TestPcservedThresholdFromFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	device := bitset.New(durNBits)
	for j := 0; j < 10; j++ {
		device.Set(100 + 37*j)
	}
	// The query misses one device cell and carries two unrelated ones, so
	// the device is the smaller set: distance 1/10.
	query := device.Clone()
	query.Clear(100)
	query.Set(1500)
	query.Set(1600)
	if d := fingerprint.Distance(query, device); d != fingerprint.DefaultThreshold {
		t.Fatalf("fixture distance %v, want exactly %v", d, fingerprint.DefaultThreshold)
	}
	for _, tc := range []struct {
		name string
		args func(dir string) []string
	}{
		{"wal.dir", func(dir string) []string { return []string{"-wal.dir", filepath.Join(dir, "wal")} }},
		{"snapshot", func(dir string) []string { return []string{"-snapshot", filepath.Join(dir, "snap.pcdb")} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args(t.TempDir())
			check := func(base, when string) {
				t.Helper()
				if st := durStats(t, base); st.Threshold != fingerprint.DefaultThreshold {
					t.Fatalf("%s: /v1/db threshold %v, want %v", when, st.Threshold, fingerprint.DefaultThreshold)
				}
				if v := durIdentify(t, base, query); v.Match || v.Distance != fingerprint.DefaultThreshold {
					t.Fatalf("%s: query at the threshold reads %+v, want no match at distance %v", when, v, fingerprint.DefaultThreshold)
				}
			}
			base, cmd := startPcserved(t, args...)
			durAdd(t, base, "dev10", device)
			check(base, "before restart")
			durStop(t, cmd)

			base, cmd = startPcserved(t, args...)
			if st := durStats(t, base); st.Entries != 1 {
				t.Fatalf("restart serves %d entries, want 1", st.Entries)
			}
			check(base, "after restart")
			durStop(t, cmd)
		})
	}
}

// TestPcservedStoreFlagsNeedWalDir: the segment store exists only under
// -wal.dir, so a serving node given -store.dir, -store.flush-entries or
// -store.compact-segments without it exits 1 with an error naming -wal.dir,
// instead of serving the memory store and ignoring the flag. The offline
// -store.verify of a -store.dir needs no WAL and still passes.
func TestPcservedStoreFlagsNeedWalDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildPcserved(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	// A node that accepted the flags would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, args := range [][]string{
		{"-store.dir", storeDir},
		{"-store.flush-entries", "5"},
		{"-store.compact-segments", "2"},
		{"-store.dir", storeDir, "-store.flush-entries", "5"},
	} {
		out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "needs -wal.dir") {
			t.Errorf("pcserved %v: %v, output %q; want exit 1 with an error naming -wal.dir", args, err, out)
		}
	}

	tb, err := store.OpenTiered(store.Config{Dir: storeDir}, store.DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	tb.Add("dev0", durFP(0))
	if err := tb.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	if out, err := exec.Command(bin, "-store.verify", "-store.dir", storeDir).CombinedOutput(); err != nil || !strings.Contains(string(out), "verified clean") {
		t.Errorf("pcserved -store.verify -store.dir: %v, output %q; want exit 0", err, out)
	}
}

// TestPcservedRouterRefusesServingFlags: a router holds no database, so
// -mode=router, with or without -partitions, refuses every flag only a
// serving node reads — naming each one, creating nothing — instead of
// listening with it ignored. The offline -wal.verify and -store.verify
// modes still run first.
func TestPcservedRouterRefusesServingFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildPcserved(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	// A router that accepted the flags would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	routers := [][]string{
		{"-mode=router", "-router.backends", "http://127.0.0.1:1"},
		{"-mode=router", "-partitions", "p0=http://127.0.0.1:1"},
	}
	for _, flags := range [][]string{
		{"-db", filepath.Join(dir, "fleet.pcdb")},
		{"-snapshot", filepath.Join(dir, "snap.pcdb")},
		{"-wal.dir", filepath.Join(dir, "wal")},
		{"-wal.fsync", "always"},
		{"-wal.segment", "4096"},
		{"-store.dir", storeDir},
		{"-store.flush-entries", "5"},
		{"-store.compact-segments", "2"},
		{"-store.dir", storeDir, "-store.flush-entries", "5"},
	} {
		for _, router := range routers {
			args := append(append([]string{"-addr", "127.0.0.1:0"}, router...), flags...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("pcserved %v: %v, output %q; want exit 1", args, err, out)
				continue
			}
			for _, f := range flags {
				if strings.HasPrefix(f, "-") && !strings.Contains(string(out), f) {
					t.Errorf("pcserved %v: output %q does not name %s", args, out, f)
				}
			}
		}
	}
	if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
		t.Errorf("a refused router created %s (stat: %v)", storeDir, err)
	}

	// -wal.verify runs before the router refusal.
	walDir := filepath.Join(dir, "wal")
	if err := os.Mkdir(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := exec.CommandContext(ctx, bin, append(routers[0], "-wal.verify", "-wal.dir", walDir)...).CombinedOutput()
	if err != nil || strings.Contains(string(out), "-mode=router") {
		t.Errorf("pcserved -mode=router -wal.verify: %v, output %q; want the offline check", err, out)
	}
}

// TestPcservedWalVerifyEndsWithNewline: the -wal.verify report ends its
// last line, so a shell prompt or the next command's output starts on a
// line of its own.
func TestPcservedWalVerifyEndsWithNewline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out, err := exec.Command(buildPcserved(t), "-wal.verify", "-wal.dir", t.TempDir()).Output()
	if err != nil {
		t.Fatalf("pcserved -wal.verify on an empty log: %v\n%s", err, out)
	}
	if !strings.HasSuffix(string(out), "ok: checksums and sequence continuity verified\n") {
		t.Errorf("pcserved -wal.verify printed %q; want it to end with the ok line and a newline", out)
	}
}
