package probablecause_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIIdentifyVerdicts is the regression test for the identify verdict
// contract: exit 0 on an unambiguous match, 3 on no match, 4 when several
// registered devices are within threshold — and, with -json, one JSON object
// carrying the full verdict including the ambiguity flag (previously the
// ambiguous case was silently reported as a plain match).
func TestCLIIdentifyVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	pcause, _ := buildCLIs(t)
	dir := t.TempDir()

	exact := make([]byte, 4096)
	exactPath := filepath.Join(dir, "exact.bin")
	if err := os.WriteFile(exactPath, exact, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, flips []int) string {
		data := make([]byte, len(exact))
		for _, p := range flips {
			data[p] ^= 1
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Twins: two devices sharing their volatile bits, so any output of one is
	// within threshold of both. A third, distinct device.
	core := []int{10, 50, 100, 200, 300, 400, 500, 600, 700, 800}
	other := []int{11, 51, 101, 201, 301, 401, 501, 601, 701, 801}
	t1 := write("t1.bin", append(core, 900))
	t2 := write("t2.bin", append(core, 901))
	probe := write("probe.bin", append(core, 902))
	o1 := write("o1.bin", append(other, 903))
	o2 := write("o2.bin", append(other, 904))
	stranger := write("stranger.bin", []int{7, 70, 700, 1700, 2700})

	fpTwin := filepath.Join(dir, "twin.fp")
	runCLI(t, pcause, "characterize", "-exact", exactPath, "-approx", t1+","+t2, "-o", fpTwin)
	fpOther := filepath.Join(dir, "other.fp")
	runCLI(t, pcause, "characterize", "-exact", exactPath, "-approx", o1+","+o2, "-o", fpOther)

	uniqueDB := filepath.Join(dir, "unique.pcdb")
	runCLI(t, pcause, "mkdb", "-o", uniqueDB, "twinA="+fpTwin, "other="+fpOther)
	twinDB := filepath.Join(dir, "twins.pcdb")
	runCLI(t, pcause, "mkdb", "-o", twinDB, "twinA="+fpTwin, "twinB="+fpTwin, "other="+fpOther)

	type verdict struct {
		Match     bool    `json:"match"`
		Ambiguous bool    `json:"ambiguous"`
		Matches   int     `json:"matches"`
		Name      string  `json:"name"`
		Distance  float64 `json:"distance"`
		Threshold float64 `json:"threshold"`
	}
	identify := func(db, approx string, extra ...string) (verdict, int) {
		t.Helper()
		args := append([]string{"identify", "-exact", exactPath, "-approx", approx, "-db", db, "-json"}, extra...)
		out, code := runCLIStatus(t, pcause, args...)
		var v verdict
		if err := json.Unmarshal([]byte(out), &v); err != nil {
			t.Fatalf("identify -json output %q: %v", out, err)
		}
		return v, code
	}

	// Unambiguous match: exit 0.
	if v, code := identify(uniqueDB, probe); code != 0 || !v.Match || v.Ambiguous || v.Name != "twinA" || v.Matches != 1 {
		t.Fatalf("unique match: exit %d, verdict %+v", code, v)
	}
	// No match: exit 3.
	if v, code := identify(uniqueDB, stranger); code != 3 || v.Match || v.Ambiguous {
		t.Fatalf("no match: exit %d, verdict %+v", code, v)
	}
	// Ambiguous: exit 4, and the verdict says so.
	if v, code := identify(twinDB, probe); code != 4 || !v.Match || !v.Ambiguous || v.Matches < 2 {
		t.Fatalf("ambiguous: exit %d, verdict %+v", code, v)
	}

	// The human-readable form carries the same verdicts.
	out, code := runCLIStatus(t, pcause, "identify", "-exact", exactPath, "-approx", probe, "-db", twinDB)
	if code != 4 || !strings.HasPrefix(out, "AMBIGUOUS") {
		t.Fatalf("text ambiguous: exit %d, %q", code, out)
	}

	// Fingerprints of another memory size: a -db list mixing lengths, or an
	// output whose length differs from the database's, is refused with both
	// lengths named (exit 1), never a panic in the distance kernel.
	shortExact := filepath.Join(dir, "short-exact.bin")
	if err := os.WriteFile(shortExact, exact[:2048], 0o644); err != nil {
		t.Fatal(err)
	}
	shortOut := filepath.Join(dir, "short-out.bin")
	if err := os.WriteFile(shortOut, append([]byte{1}, exact[1:2048]...), 0o644); err != nil {
		t.Fatal(err)
	}
	fpShort := filepath.Join(dir, "short.fp")
	runCLI(t, pcause, "characterize", "-exact", shortExact, "-approx", shortOut, "-o", fpShort)
	for _, c := range []struct{ exact, approx, db string }{
		{exactPath, probe, fpTwin + "," + fpShort},
		{shortExact, shortOut, fpTwin},
	} {
		out, code := runCLIStatus(t, pcause, "identify", "-exact", c.exact, "-approx", c.approx, "-db", c.db)
		if code != 1 || !strings.Contains(out, "32768") || !strings.Contains(out, "16384") || strings.Contains(out, "panic") {
			t.Fatalf("mismatched lengths (db %s, output %s): exit %d, %q", c.db, c.approx, code, out)
		}
	}
}
