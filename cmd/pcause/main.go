// Command pcause is the attacker's toolbox: it characterizes approximate
// memories from captured outputs, identifies which known device produced an
// output, and clusters outputs from unknown devices.
//
// Subcommands:
//
//	pcause characterize -exact FILE -approx FILE[,FILE...] -o FP
//	    Build a device fingerprint (Algorithm 1) and write it to FP.
//	pcause identify -exact FILE -approx FILE -db FP[,FP...]
//	    Match one approximate output against a fingerprint database
//	    (Algorithms 2 and 3).
//	pcause cluster -exact FILE -approx FILE[,FILE...]
//	    Group approximate outputs by originating device (Algorithm 4).
//	pcause mkdb -o DB name=FP [name=FP...]
//	    Bundle named fingerprints into one database file.
//	pcause gensamples -o FILE [-buddy|-scattered] [-corrupt SPEC]
//	    Simulate a victim publishing outputs; write a JSON-lines sample file,
//	    optionally corrupted under a fault-injection plan.
//	pcause stitch -in FILE [-lenient] [-save DB] [-load DB]
//	    Run the whole-memory stitching attack (§4) over a sample file.
//	pcause demo
//	    Run a self-contained demonstration on two simulated chips.
//
// Exact and approximate files are raw byte images of the same length; the
// fingerprint file format is the bitset binary encoding.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"probablecause/internal/approx"
	"probablecause/internal/bitset"
	"probablecause/internal/dram"
	"probablecause/internal/drammodel"
	"probablecause/internal/faults"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/osmodel"
	"probablecause/internal/pool"
	"probablecause/internal/samplefile"
	"probablecause/internal/stitch"
	"probablecause/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "characterize":
		err = cmdCharacterize(os.Args[2:])
	case "identify":
		err = cmdIdentify(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "mkdb":
		err = cmdMkdb(os.Args[2:])
	case "gensamples":
		err = cmdGensamples(os.Args[2:])
	case "stitch":
		err = cmdStitch(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "pcause: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		var st *statusError
		if errors.As(err, &st) {
			os.Exit(st.code)
		}
		fmt.Fprintln(os.Stderr, "pcause:", err)
		os.Exit(1)
	}
}

// statusError carries a verdict exit code out of a subcommand without
// printing anything beyond what the command already wrote: identify exits 0
// on an unambiguous match, identifyExitNoMatch when nothing is within
// threshold, and identifyExitAmbiguous when several entries are — so scripts
// can branch on the verdict without parsing output.
type statusError struct{ code int }

func (e *statusError) Error() string { return fmt.Sprintf("exit status %d", e.code) }

// Identify verdict exit codes.
const (
	identifyExitNoMatch   = 3
	identifyExitAmbiguous = 4
)

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: pcause <command> [flags]

Commands:
  characterize  build a device fingerprint from captured outputs (Algorithm 1)
  identify      match one output against a fingerprint database (Algorithms 2, 3)
  cluster       group outputs by originating device (Algorithm 4)
  mkdb          bundle named fingerprints into one database file
  gensamples    simulate a victim publishing outputs to a sample file
  stitch        run the whole-memory stitching attack (§4) over a sample file
  demo          self-contained demonstration on two simulated chips

Run 'pcause <command> -h' for the command's flags. Every command accepts the
-obs.* observability flags (metrics report, debug server, trace log).
`)
}

// newFlagSet builds a subcommand FlagSet whose -h output shows the command's
// own synopsis and flags (not the generic one-liner), with the -obs.* family
// installed.
func newFlagSet(name, synopsis string) (*flag.FlagSet, *obs.Options) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pcause %s\n\nFlags:\n", synopsis)
		fs.PrintDefaults()
	}
	return fs, obs.AddFlags(fs)
}

func readFiles(list string) ([][]byte, error) {
	var out [][]byte
	for _, name := range strings.Split(list, ",") {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

func cmdCharacterize(args []string) (err error) {
	fs, obsOpts := newFlagSet("characterize", "characterize -exact FILE -approx FILE[,FILE...] [-o FP]")
	exactPath := fs.String("exact", "", "exact data file")
	approxList := fs.String("approx", "", "comma-separated approximate output files")
	outPath := fs.String("o", "fingerprint.bin", "output fingerprint file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exactPath == "" || *approxList == "" {
		return fmt.Errorf("characterize requires -exact and -approx")
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	exact, err := os.ReadFile(*exactPath)
	if err != nil {
		return err
	}
	approxes, err := readFiles(*approxList)
	if err != nil {
		return err
	}
	fp, err := fingerprint.Characterize(exact, approxes...)
	if err != nil {
		return err
	}
	data, err := fp.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("fingerprint: %d volatile bits from %d outputs → %s\n",
		fp.Count(), len(approxes), *outPath)
	return nil
}

func cmdIdentify(args []string) (err error) {
	fs, obsOpts := newFlagSet("identify", "identify -exact FILE -approx FILE -db FP[,FP...] [-threshold T] [-json]")
	exactPath := fs.String("exact", "", "exact data file")
	approxPath := fs.String("approx", "", "approximate output file")
	dbList := fs.String("db", "", "comma-separated fingerprint files")
	threshold := fs.Float64("threshold", fingerprint.DefaultThreshold, "match threshold")
	asJSON := fs.Bool("json", false, "emit the verdict as one JSON object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exactPath == "" || *approxPath == "" || *dbList == "" {
		return fmt.Errorf("identify requires -exact, -approx and -db")
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	exact, err := os.ReadFile(*exactPath)
	if err != nil {
		return err
	}
	approxData, err := os.ReadFile(*approxPath)
	if err != nil {
		return err
	}
	es, err := fingerprint.ErrorString(approxData, exact)
	if err != nil {
		return err
	}
	db := fingerprint.NewDB(*threshold)
	for _, name := range strings.Split(*dbList, ",") {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		// A file may be a whole fingerprint database (pcause mkdb) or a
		// single raw fingerprint (pcause characterize); detect by magic.
		if bytes.HasPrefix(data, []byte("PCDB01")) {
			sub, err := fingerprint.ReadDB(bytes.NewReader(data))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			for _, e := range sub.Entries() {
				db.Add(e.Name, e.FP)
			}
			continue
		}
		var fp bitset.Set
		if err := fp.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		db.Add(filepath.Base(name), &fp)
	}
	// Distance is only defined over equal-length sets: refuse a database
	// mixing lengths, or an output of another length, before scanning.
	nbits, err := db.BitLen()
	if err != nil {
		return err
	}
	if db.Len() > 0 && es.Len() != nbits {
		return fmt.Errorf("identify: the output's error string is %d bits, the database fingerprints %d", es.Len(), nbits)
	}
	v := db.Decide(es)
	if *asJSON {
		blob, err := json.Marshal(struct {
			Match     bool    `json:"match"`
			Ambiguous bool    `json:"ambiguous"`
			Matches   int     `json:"matches"`
			Name      string  `json:"name"`
			Distance  float64 `json:"distance"`
			Threshold float64 `json:"threshold"`
		}{v.OK(), v.Ambiguous(), v.Matches, v.Name, v.Distance, *threshold})
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	}
	switch {
	case v.Ambiguous():
		// An ambiguous identification is a distinct verdict (Algorithm 3
		// returns "ambiguous", not the best guess): more than one registered
		// device is within threshold, so naming one would be a coin flip.
		if !*asJSON {
			fmt.Printf("AMBIGUOUS %d devices within threshold %g (best %s at distance %.4f)\n",
				v.Matches, *threshold, v.Name, v.Distance)
		}
		return &statusError{code: identifyExitAmbiguous}
	case v.OK():
		if !*asJSON {
			fmt.Printf("MATCH %s (distance %.4f, threshold %g)\n", v.Name, v.Distance, *threshold)
		}
		return nil
	default:
		if !*asJSON {
			fmt.Printf("no match (best %s at distance %.4f, threshold %g)\n", v.Name, v.Distance, *threshold)
		}
		return &statusError{code: identifyExitNoMatch}
	}
}

func cmdCluster(args []string) (err error) {
	fs, obsOpts := newFlagSet("cluster", "cluster -exact FILE -approx FILE[,FILE...] [-threshold T]")
	exactPath := fs.String("exact", "", "exact data file")
	approxList := fs.String("approx", "", "comma-separated approximate output files")
	threshold := fs.Float64("threshold", fingerprint.DefaultThreshold, "match threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exactPath == "" || *approxList == "" {
		return fmt.Errorf("cluster requires -exact and -approx")
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	exact, err := os.ReadFile(*exactPath)
	if err != nil {
		return err
	}
	approxes, err := readFiles(*approxList)
	if err != nil {
		return err
	}
	cl := fingerprint.NewClusterer(*threshold)
	names := strings.Split(*approxList, ",")
	for i, a := range approxes {
		es, err := fingerprint.ErrorString(a, exact)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		fmt.Printf("%s → cluster %d\n", names[i], cl.Add(es))
	}
	fmt.Printf("%d outputs, %d suspected device(s)\n", len(approxes), cl.Count())
	return nil
}

// cmdMkdb bundles named fingerprints into one database file:
//
//	pcause mkdb -o fleet.pcdb chipA=fpA.bin chipB=fpB.bin
func cmdMkdb(args []string) (err error) {
	fs, obsOpts := newFlagSet("mkdb", "mkdb [-o DB] name=FP [name=FP...]")
	outPath := fs.String("o", "fingerprints.pcdb", "output database file")
	threshold := fs.Float64("threshold", fingerprint.DefaultThreshold, "match threshold stored in the database")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("mkdb requires name=fingerprint.bin arguments")
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	db := fingerprint.NewDB(*threshold)
	for _, arg := range fs.Args() {
		name, file, ok := strings.Cut(arg, "=")
		if !ok {
			return fmt.Errorf("argument %q is not name=file", arg)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var fp bitset.Set
		if err := fp.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		db.Add(name, &fp)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d fingerprints to %s\n", db.Len(), *outPath)
	return nil
}

// cmdGensamples simulates a victim system publishing approximate outputs
// and writes them as a JSON-lines sample file for the stitch subcommand.
func cmdGensamples(args []string) (err error) {
	fs, obsOpts := newFlagSet("gensamples", "gensamples [-o FILE] [-buddy|-scattered] [-memory N] [-pages N] [-n N] [-corrupt SPEC]")
	outPath := fs.String("o", "samples.jsonl", "output sample file")
	memPages := fs.Int("memory", 4096, "victim physical memory in pages (power of two for -buddy)")
	samplePages := fs.Int("pages", 40, "pages per published output")
	count := fs.Int("n", 500, "number of outputs to publish")
	errRate := fs.Float64("err", 0.01, "approximation error rate")
	seed := fs.Uint64("seed", 0x6E5A, "victim system seed")
	buddy := fs.Bool("buddy", false, "use the buddy-allocator placement model")
	scattered := fs.Bool("scattered", false, "use page-level-ASLR placement (defense)")
	corrupt := fs.String("corrupt", "", "fault plan for a corrupted corpus, e.g. bitflip=0.01,drop=0.005,line=0.02")
	corruptSeed := fs.Uint64("corrupt.seed", 0xFA17, "fault-injection seed for -corrupt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := faults.ParsePlan(*corrupt, *corruptSeed)
	if err != nil {
		return err
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	model := drammodel.New(*seed)
	var placer osmodel.Placer
	switch {
	case *buddy:
		sys, err := osmodel.NewSystem(*memPages, *seed^0xB0DD)
		if err != nil {
			return err
		}
		placer = sys
	case *scattered:
		mem, err := osmodel.NewMemory(*memPages, *seed^0xA5)
		if err != nil {
			return err
		}
		placer = osmodel.Scattered{Memory: mem}
	default:
		mem, err := osmodel.NewMemory(*memPages, *seed^0xA5)
		if err != nil {
			return err
		}
		placer = mem
	}
	src, err := workload.NewSampleSource(model, placer, *errRate, *samplePages)
	if err != nil {
		return err
	}
	inj := faults.NewInjector(plan)
	samples := make([]stitch.Sample, 0, *count)
	badPages := 0
	for i := 0; i < *count; i++ {
		s, _, err := src.Next()
		if err != nil {
			return err
		}
		if plan.Active() {
			var n int
			s, n = inj.CorruptSample(s, dram.PageBits)
			badPages += n
		}
		samples = append(samples, s)
	}
	var buf bytes.Buffer
	if err := samplefile.Write(&buf, samples); err != nil {
		return err
	}
	doc := buf.Bytes()
	badLines := 0
	if plan.Line > 0 {
		doc, badLines = inj.CorruptJSONLines(doc)
	}
	if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples (%d pages each) to %s\n", *count, *samplePages, *outPath)
	if plan.Active() {
		fmt.Printf("faults (%s): corrupted %d pages, mangled %d lines\n", plan, badPages, badLines)
	}
	return nil
}

// cmdStitch runs the whole-memory fingerprint-stitching attack over a sample
// file, reporting the suspected-machine count as samples accumulate.
func cmdStitch(args []string) (err error) {
	fs, obsOpts := newFlagSet("stitch", "stitch -in FILE [-lenient] [-save DB] [-load DB] [-threshold T] [-overlap N] [-workers N]")
	inPath := fs.String("in", "samples.jsonl", "sample file (JSON lines)")
	threshold := fs.Float64("threshold", fingerprint.DefaultThreshold, "page match threshold")
	minOverlap := fs.Int("overlap", 1, "pages that must align to merge")
	workers := fs.Int("workers", 1, "worker pool size for signing/verification (0 = one per CPU); any value produces identical clusters")
	every := fs.Int("progress", 100, "print progress every N samples")
	loadPath := fs.String("load", "", "resume from a previously saved database")
	savePath := fs.String("save", "", "save the database when done")
	lenient := fs.Bool("lenient", false, "tolerate corrupt captures: skip malformed lines and reject outlier pages instead of aborting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg := stitch.Config{Threshold: *threshold, MinOverlap: *minOverlap, Workers: pool.Workers(*workers)}
	if *lenient {
		cfg.MaxBitPos = dram.PageBits
		cfg.OutlierFactor = 8
	}
	var st *stitch.Stitcher
	if *loadPath != "" {
		db, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		st, err = stitch.Load(db, cfg)
		db.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *loadPath, err)
		}
		fmt.Printf("resumed database: %d cluster(s), %d pages\n", st.Count(), st.CoveredPages())
	} else if st, err = stitch.New(cfg); err != nil {
		return err
	}
	r := samplefile.NewReader(f)
	r.SetLenient(*lenient)
	n, rejected := 0, 0
	for {
		s, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if _, err := st.Add(s); err != nil {
			if *lenient && errors.Is(err, stitch.ErrSampleRejected) {
				rejected++
				continue
			}
			return err
		}
		n++
		if *every > 0 && n%*every == 0 {
			fmt.Printf("%6d samples → %d suspected machine(s), %d pages fingerprinted\n",
				n, st.Count(), st.CoveredPages())
		}
	}
	fmt.Printf("final: %d samples → %d suspected machine(s); largest fingerprint %d pages\n",
		n, st.Count(), st.LargestCluster())
	if *lenient && (r.Skipped() > 0 || rejected > 0 || st.RejectedPages() > 0) {
		fmt.Printf("lenient: skipped %d malformed line(s), rejected %d sample(s) and %d outlier page(s)\n",
			r.Skipped(), rejected, st.RejectedPages())
	}
	if *savePath != "" {
		out, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if _, err := st.WriteTo(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("database saved to %s\n", *savePath)
	}
	return nil
}

func cmdDemo(args []string) (err error) {
	fs, obsOpts := newFlagSet("demo", "demo [-accuracy A]")
	accuracy := fs.Float64("accuracy", 0.99, "approximate-memory accuracy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obsOpts.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	fmt.Println("Probable Cause demo: two simulated 32 KB KM41464A chips")
	fmt.Printf("approximate memory at %.0f%% accuracy\n\n", *accuracy*100)

	mems := make([]*approx.Memory, 2)
	for i := range mems {
		chip, err := dram.NewChip(dram.KM41464A(uint64(0xD301 + i)))
		if err != nil {
			return err
		}
		if mems[i], err = approx.New(chip, *accuracy); err != nil {
			return err
		}
	}

	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i, mem := range mems {
		a1, exact, err := mem.WorstCaseOutput()
		if err != nil {
			return err
		}
		a2, _, err := mem.WorstCaseOutput()
		if err != nil {
			return err
		}
		fp, err := fingerprint.Characterize(exact, a1, a2)
		if err != nil {
			return err
		}
		db.Add(fmt.Sprintf("chip%d", i), fp)
		fmt.Printf("characterized chip%d: %d volatile bits\n", i, fp.Count())
	}

	fmt.Println("\nvictim publishes fresh outputs; attacker identifies them:")
	for i, mem := range mems {
		a, exact, err := mem.WorstCaseOutput()
		if err != nil {
			return err
		}
		es, err := fingerprint.ErrorString(a, exact)
		if err != nil {
			return err
		}
		v := db.Decide(es)
		fmt.Printf("output from chip%d → identified as %s (distance %.4f)\n", i, v.Name, v.Distance)
	}
	return nil
}
