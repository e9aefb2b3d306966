// Command pcserved serves the fingerprint identification engine over
// HTTP/JSON: load a fingerprint database, answer "which registered device
// produced this approximate output?" at fleet scale.
//
//	pcserved -db DB[,DB...] [-snapshot FILE] [-wal.dir DIR] [-addr HOST:PORT] [flags]
//	pcserved -mode=follower -wal.dir DIR -repl.primary URL [flags]
//	pcserved -mode=router -router.backends URL[,URL...] [flags]
//	pcserved -wal.verify -wal.dir DIR
//
// The serving path layers micro-batching, an N-way sharded database, and an
// LRU verdict cache over the parallel identification engine; see
// internal/server. On SIGINT/SIGTERM the server drains in-flight requests
// and, when -snapshot is set, saves the (possibly mutated) database
// atomically before exiting — restart with the same -snapshot to resume.
//
// With -wal.dir, durable streaming enrollment is enabled: every
// /v1/enroll observation is appended to a write-ahead log before it is
// acknowledged, converged fingerprints are promoted into the database,
// and boot replays the log over the last checkpoint — a kill -9 at any
// point loses nothing that was acked. Graceful shutdown checkpoints the
// database with its WAL watermark and compacts the log.
//
// Cluster modes (see internal/cluster and docs/OPERATIONS.md):
//
//   - The default mode serves standalone, or as the replication primary
//     when -wal.dir is set: followers pull /v1/repl/stream, and with
//     -repl.min-isr N each enrollment ack waits for N follower acks.
//   - -mode=follower replays the primary's WAL stream into a local,
//     byte-identical copy; an empty -wal.dir bootstraps from the
//     primary's snapshot first. Followers serve reads and refuse
//     mutations; /readyz stays 503 until caught up.
//   - -mode=router spreads identify reads across healthy replicas,
//     forwards mutations to the primary, and promotes the most-caught-up
//     follower when the primary dies.
//   - -mode=router with -partitions runs the scatter-gather coordinator
//     for a partitioned cluster (see CLUSTER.md): identify fans out to
//     every partition and the verdicts merge back byte-identically to a
//     single-node scan; enrollment routes to the partition owning the
//     device name. Serving nodes in a partitioned cluster take the same
//     -partitions spec plus -partition.self=NAME so they refuse
//     misdirected mutations (421) and report globally-unique entry ids.
//   - -wal.verify walks the WAL segments offline, validating checksums
//     and sequence continuity, classifying a torn tail (normal after a
//     crash) vs interior corruption (exit 1), and exits.
//
// Tiered storage (-store.backend=tiered, see docs/OPERATIONS.md): the
// database moves behind mmap'd immutable segment files in -store.dir
// (default <wal.dir>/store). Enrollments land in an in-RAM memtable that
// flushes to a new segment once it crosses -store.flush-entries (and at
// every checkpoint); segments compact once more than
// -store.compact-segments accumulate. Identify queries stream straight
// off the mappings, so resident memory stays bounded by the memtable,
// not the corpus. -store.verify deep-checks every committed segment
// offline and exits — the triage mode for corruption refusals at boot.
//
// API:
//
//	POST   /v1/identify           {"len":N,"positions":[...]} → verdict
//	POST   /v1/identify-batch     {"queries":[...]} → verdicts
//	POST   /v1/characterize       intersect outputs; optionally register
//	POST   /v1/enroll             durably fold one observation into a session
//	GET    /v1/enroll/{id}/status enrollment session progress
//	POST   /v1/snapshot           checkpoint the database + compact the WAL
//	GET    /v1/db                 serving stats
//	POST   /v1/db                 register a fingerprint
//	DELETE /v1/db?name=N         remove a fingerprint
//	GET    /v1/cluster/topology  partition map + per-backend view (scatter router)
//	GET    /v1/repl/status       replication role, positions, quorum view
//	GET    /v1/repl/stream       WAL records from ?from= (follower pull)
//	GET    /v1/repl/snapshot     bootstrap image (db + watermark/floor)
//	POST   /v1/repl/promote      follower → primary (failover)
//	POST   /v1/repl/follow       re-point this follower at a new primary
//	GET    /healthz              liveness (degraded on critical SLO burn)
//	GET    /readyz               readiness (503 until replay/catch-up done)
//	GET    /metrics              obs metrics (Prometheus; ?format=json)
//	GET    /slo                  SLO burn-rate report (-slo objectives)
//	GET    /debug/slowest        span trees of the slowest requests (-slow)
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/cluster"
	"probablecause/internal/faults"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/retry"
	"probablecause/internal/samplefile"
	"probablecause/internal/server"
	"probablecause/internal/store"
	"probablecause/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pcserved:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("pcserved", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pcserved [-db DB[,DB...]] [-snapshot FILE] [-addr HOST:PORT] [flags]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	addr := fs.String("addr", "127.0.0.1:8437", "listen address")
	dbList := fs.String("db", "", "comma-separated fingerprint databases or raw fingerprints to seed from")
	snapshot := fs.String("snapshot", "", "database snapshot: loaded at startup when present, saved atomically on shutdown")
	threshold := fs.Float64("threshold", 0, "match threshold (0: take it from the seed database)")
	shards := fs.Int("shards", 0, fmt.Sprintf("database shard count (0: %d)", fingerprint.DefaultShards))
	workers := fs.Int("workers", 0, "identification worker pool size (0: one per CPU)")
	batchWindow := fs.Duration("batch.window", 500*time.Microsecond, "micro-batching coalescing window (0: dispatch immediately)")
	maxBatch := fs.Int("batch.max", 0, fmt.Sprintf("max identify queries per dispatch (0: %d)", server.DefaultMaxBatch))
	queue := fs.Int("queue", 0, fmt.Sprintf("identify queue depth; overflow is shed with 429 (0: %d)", server.DefaultQueueDepth))
	cacheSize := fs.Int("cache", 4096, "verdict cache capacity (0: caching off)")
	timeout := fs.Duration("timeout", 0, fmt.Sprintf("per-request verdict timeout (0: %s)", server.DefaultRequestTimeout))
	maxBody := fs.Int64("maxbody", 0, fmt.Sprintf("request body cap in bytes (0: %d)", int64(server.DefaultMaxBodyBytes)))
	faultSpec := fs.String("faults", "", "chaos: fault plan for request ingest, e.g. readerr=0.01,latency=2ms")
	faultSeed := fs.Uint64("fault.seed", 0xFA17, "fault-injection seed for -faults")
	walDir := fs.String("wal.dir", "", "durable enrollment directory (WAL segments + checkpoints); enables /v1/enroll")
	walFsync := fs.String("wal.fsync", "batch", "WAL fsync policy: batch (group commit), always, or off")
	walSegment := fs.Int64("wal.segment", 0, "WAL segment rotation size in bytes (0: 64 MiB)")
	enrollMax := fs.Int("enroll.max", 0, fmt.Sprintf("max live enrollment sessions (0: %d)", server.DefaultMaxSessions))
	enrollMinObs := fs.Int("enroll.minobs", 0, fmt.Sprintf("observations before an enrollment may converge (0: %d)", fingerprint.DefaultMinObservations))
	enrollPatience := fs.Int("enroll.patience", 0, fmt.Sprintf("unchanged observations that declare convergence (0: %d)", fingerprint.DefaultStablePatience))
	enrollQuota := fs.Float64("enroll.quota", 0, "per-cell failure-rate quota in (0,1); 0 or 1 is pure intersection")
	sloSpec := fs.String("slo", "", "SLO objectives for /slo, e.g. identify:p99<50ms,identify:err<1%")
	slowK := fs.Int("slow", 0, fmt.Sprintf("slow-request retention for /debug/slowest (0: %d, negative: off)", obs.DefaultSlowRing))
	mode := fs.String("mode", "serve", "process role: serve (standalone or primary), follower, or router")
	walVerify := fs.Bool("wal.verify", false, "offline: verify WAL segments in -wal.dir, report torn tail vs interior corruption, and exit")
	storeBackend := fs.String("store.backend", "", fmt.Sprintf("storage backend: %q (default) or %q (mmap'd segment files)", store.BackendMemory, store.BackendTiered))
	storeDir := fs.String("store.dir", "", "tiered store directory (default: <wal.dir>/store)")
	storeFlush := fs.Int("store.flush-entries", 0, fmt.Sprintf("memtable entries that trigger a segment flush (0: %d)", store.DefaultFlushEntries))
	storeCompact := fs.Int("store.compact-segments", 0, fmt.Sprintf("segment count above which checkpoints compact (0: %d)", store.DefaultCompactSegments))
	storeVerify := fs.Bool("store.verify", false, "offline: deep-verify every committed segment in -store.dir, and exit")
	clusterID := fs.String("cluster.id", "", "node identity in replication acks and status (default: the listen address)")
	minISR := fs.Int("repl.min-isr", 0, "follower acks required before an enrollment is acknowledged (0: ack on local durability alone)")
	replPrimary := fs.String("repl.primary", "", "follower mode: the primary's base URL to pull the WAL stream from")
	replInterval := fs.Duration("repl.interval", 0, fmt.Sprintf("follower poll pacing when caught up (0: %s)", cluster.DefaultPullInterval))
	routerBackends := fs.String("router.backends", "", "router mode: comma-separated cluster node base URLs")
	routerProbe := fs.Duration("router.probe", 0, fmt.Sprintf("router health/role probe interval (0: %s)", cluster.DefaultProbeInterval))
	routerFailover := fs.Int("router.failover-after", 0, fmt.Sprintf("consecutive failed primary probes that trigger failover (0: %d)", cluster.DefaultFailoverAfter))
	routerRetries := fs.Int("router.retries", 0, fmt.Sprintf("proxy attempts per read (0: %d)", cluster.DefaultReadAttempts))
	partitions := fs.String("partitions", "", "partition map spec p0=url|url,p1=url|url — scatter-gather router mode, or (with -partition.self) a partition-scoped serving node")
	partitionSelf := fs.String("partition.self", "", "the partition in the -partitions map this serving node belongs to")
	obsOpts := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *walVerify {
		if *walDir == "" {
			return errors.New("-wal.verify needs -wal.dir")
		}
		return runWalVerify(*walDir)
	}
	if *storeDir == "" && *walDir != "" {
		*storeDir = filepath.Join(*walDir, "store")
	}
	if *storeVerify {
		if *storeDir == "" {
			return errors.New("-store.verify needs -store.dir (or -wal.dir)")
		}
		return runStoreVerify(*storeDir)
	}
	if *storeBackend == store.BackendTiered {
		if *walDir == "" {
			return errors.New("-store.backend=tiered needs -wal.dir (the WAL is the memtable's durability)")
		}
	} else if *storeBackend != "" && *storeBackend != store.BackendMemory {
		return fmt.Errorf("unknown -store.backend %q (want %q or %q)", *storeBackend, store.BackendMemory, store.BackendTiered)
	}
	if *mode == "router" {
		if *partitions != "" {
			return runScatterRouter(*addr, *partitions, *routerProbe, *routerFailover, *routerRetries, obsOpts)
		}
		return runRouter(*addr, *routerBackends, *routerProbe, *routerFailover, *routerRetries, obsOpts)
	}
	if *mode != "serve" && *mode != "follower" {
		return fmt.Errorf("unknown -mode %q (serve, follower, or router)", *mode)
	}
	// A serving node in a partitioned cluster derives its ownership
	// predicate and global id namespace from the shared partition map.
	var partCfg server.PartitionConfig
	if *partitions != "" || *partitionSelf != "" {
		if *partitions == "" || *partitionSelf == "" {
			return errors.New("partitioned serving needs both -partitions and -partition.self")
		}
		pmap, err := cluster.ParsePartitions(*partitions)
		if err != nil {
			return err
		}
		ord := pmap.Ordinal(*partitionSelf)
		if ord < 0 {
			return fmt.Errorf("-partition.self %q is not in the -partitions map", *partitionSelf)
		}
		partCfg = server.PartitionConfig{
			Name: *partitionSelf,
			NS:   pmap.Namespace(ord),
			Owns: pmap.OwnsFunc(ord),
		}
	}
	if *mode == "follower" {
		if *walDir == "" {
			return errors.New("follower mode needs -wal.dir")
		}
		if *replPrimary == "" {
			return errors.New("follower mode needs -repl.primary")
		}
	}

	// Serving runs are usually launched by a harness, not a shell: honor the
	// OBS_REPORT environment hook (the bench suite's convention) as the
	// default for -obs.report so a graceful SIGTERM drain always leaves a
	// metrics artifact.
	if obsOpts.Report == "" {
		obsOpts.Report = os.Getenv("OBS_REPORT")
	}
	objectives, err := obs.ParseObjectives(*sloSpec)
	if err != nil {
		return err
	}
	plan, err := faults.ParsePlan(*faultSpec, *faultSeed)
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
	// SLO tracking and slow-request retention ride the request-scoped
	// instrumentation, which is off by default; asking for either is an
	// explicit observability opt-in.
	if len(objectives) > 0 || *slowK > 0 {
		obs.Enable()
	}

	seed, err := loadSeed(*dbList, *snapshot, *threshold)
	if err != nil {
		return err
	}

	cfg := server.Config{
		Threshold:      *threshold,
		Shards:         *shards,
		Workers:        *workers,
		BatchWindow:    *batchWindow,
		MaxBatch:       *maxBatch,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		FaultPlan:      plan,
		SLO:            obs.SLOConfig{Objectives: objectives},
		SlowRequests:   *slowK,
		Store: store.Config{
			Backend:         *storeBackend,
			Dir:             *storeDir,
			FlushEntries:    *storeFlush,
			CompactSegments: *storeCompact,
			// Storage chaos hook: the crash-recovery matrix sets PCSTORE_CRASH
			// to a flush/compaction step name and the engine hard-exits there.
			CrashPoint: os.Getenv("PCSTORE_CRASH"),
		},
		Partition: partCfg,
	}
	var svc *server.Service
	if *walDir != "" {
		fsyncMode, err := wal.ParseFsyncMode(*walFsync)
		if err != nil {
			return err
		}
		// A follower with an empty durable dir seeds itself from the
		// primary's snapshot: the exported database lands as a local
		// checkpoint, and the local WAL starts at the snapshot's replay
		// floor so replicated records keep the primary's sequence numbers.
		startSeq := uint64(0)
		if *mode == "follower" {
			fresh, err := durableDirFresh(*walDir, *storeDir)
			if err != nil {
				return err
			}
			if fresh && *storeBackend == store.BackendTiered {
				// Tiered followers bootstrap by shipping the primary's
				// immutable segment files — no monolithic export on either
				// side; BootDurable then recovers from the landed manifest.
				meta, err := cluster.BootstrapFollowerSegments(context.Background(), *storeDir, *replPrimary, nil)
				if err != nil {
					return fmt.Errorf("bootstrapping segments from %s: %w", *replPrimary, err)
				}
				startSeq = meta.Floor
				fmt.Printf("pcserved: bootstrapped segments from %s (watermark %d, floor %d)\n",
					*replPrimary, meta.Watermark, meta.Floor)
			} else if fresh {
				meta, err := cluster.BootstrapFollower(context.Background(), *walDir, *replPrimary, nil)
				if err != nil {
					return fmt.Errorf("bootstrapping from %s: %w", *replPrimary, err)
				}
				startSeq = meta.Floor
				fmt.Printf("pcserved: bootstrapped %d entries from %s (watermark %d, floor %d)\n",
					meta.Entries, *replPrimary, meta.Watermark, meta.Floor)
			}
		}
		// The committed checkpoint in -wal.dir (when one exists) overrides
		// the seed, and the surviving WAL records replay on top: recovery.
		svc, err = server.BootDurable(seed, cfg, server.EnrollConfig{
			Dir: *walDir,
			WAL: wal.Options{SegmentBytes: *walSegment, Fsync: fsyncMode, StartSeq: startSeq},
			Accumulator: fingerprint.AccumulatorConfig{
				Quota:           *enrollQuota,
				MinObservations: *enrollMinObs,
				StablePatience:  *enrollPatience,
			},
			MaxSessions: *enrollMax,
		})
		if err != nil {
			return err
		}
		es := svc.EnrollStats()
		fmt.Printf("pcserved: recovered WAL to seq %d (%d open sessions)\n", es.AppliedSeq, es.Sessions)
	} else if svc, err = server.New(seed, cfg); err != nil {
		return err
	}

	// With a WAL the node joins the replication surface: /v1/repl/*
	// endpoints mount over the service API, and the role machinery
	// (commit tracker or stream puller) starts per -mode.
	handler := svc.Handler()
	var node *cluster.Node
	if *walDir != "" {
		id := *clusterID
		if id == "" {
			id = *addr
		}
		node = cluster.NewNode(svc, cluster.NodeConfig{
			ID:     id,
			MinISR: *minISR,
			Pull: cluster.PullConfig{
				Interval: *replInterval,
				Retry:    retry.Policy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second},
			},
		})
		if *mode == "follower" {
			if err := node.StartFollower(*replPrimary); err != nil {
				return err
			}
			fmt.Printf("pcserved: following %s\n", *replPrimary)
		} else {
			node.StartPrimary()
		}
		defer node.Close()
		handler = node.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	st := svc.DB().Stats()
	// serve returns once in-flight HTTP exchanges finish; svc.Close below
	// then drains the identify queue so every admitted query gets its
	// verdict.
	if err := serve(ln, handler, fmt.Sprintf("listening on %s (%d entries, %d shards)", ln.Addr(), st.Entries, len(st.PerShard))); err != nil {
		return err
	}
	// Checkpoint before Close: compaction needs the WAL still open.
	if *walDir != "" {
		meta, err := svc.Checkpoint()
		if err != nil {
			return err
		}
		fmt.Printf("pcserved: checkpointed %d entries at watermark %d\n", meta.Entries, meta.Watermark)
	}
	svc.Close()

	if *snapshot != "" {
		db := svc.DB().Export()
		if err := samplefile.SaveDB(*snapshot, db); err != nil {
			return err
		}
		fmt.Printf("pcserved: saved %d entries to %s\n", db.Len(), *snapshot)
	}
	if obsOpts.Report != "" {
		// The deferred obs finish writes the file; announce it so drain logs
		// point at the artifact.
		fmt.Printf("pcserved: writing metrics snapshot to %s\n", obsOpts.Report)
	}
	return nil
}

// runWalVerify walks the WAL segments offline and reports their health:
// exit 0 for a clean log or a torn tail (the expected shape after a
// crash — recovery truncates it), exit 1 for interior corruption or a
// sequence gap, which recovery would refuse to replay.
func runWalVerify(dir string) error {
	rep, err := wal.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if rep.Corrupt {
		return errors.New("interior corruption: this log will not replay; restore from a checkpoint + re-replicate")
	}
	return nil
}

// durableDirFresh reports whether the durable directories hold no state yet
// — no committed checkpoint, no WAL segments, and no tiered-store manifest —
// i.e. snapshot bootstrap is required before following.
func durableDirFresh(dir, storeDir string) (bool, error) {
	if _, _, ok, err := samplefile.LoadCheckpoint(dir); err != nil {
		return false, err
	} else if ok {
		return false, nil
	}
	if storeDir != "" {
		if _, err := os.Stat(filepath.Join(storeDir, store.ManifestFile)); err == nil {
			return false, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return false, err
	}
	return len(segs) == 0, nil
}

// runStoreVerify deep-checks every committed segment in a tiered store
// directory offline: manifest parse, structural and checksum validation, and
// the log-vs-columnar cross-check. Exit 0 means the store will load; exit 1
// names every failing segment — restore those files from a replica (the
// segment-shipping bootstrap) or re-flush from the WAL.
func runStoreVerify(dir string) error {
	if err := store.VerifyDir(dir); err != nil {
		return err
	}
	fmt.Printf("pcserved: store %s verified clean\n", dir)
	return nil
}

// runRouter serves the routing tier: reads spread across healthy
// replicas, mutations to the primary, failover on primary death.
func runRouter(addr, backendList string, probe time.Duration, failoverAfter, retries int, obsOpts *obs.Options) (err error) {
	if backendList == "" {
		return errors.New("router mode needs -router.backends")
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
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      strings.Split(backendList, ","),
		ProbeInterval: probe,
		FailoverAfter: failoverAfter,
		Retry:         retry.Policy{MaxAttempts: retries},
	})
	if err != nil {
		return err
	}
	defer router.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ln, router.Handler(), fmt.Sprintf("router listening on %s (%d backends)", ln.Addr(), len(strings.Split(backendList, ","))))
}

// runScatterRouter serves the partitioned cluster's front door: identify
// fans out to every partition and merges, keyed mutations route to the
// owning partition, /v1/cluster/topology exposes the whole shape.
func runScatterRouter(addr, spec string, probe time.Duration, failoverAfter, retries int, obsOpts *obs.Options) (err error) {
	pmap, err := cluster.ParsePartitions(spec)
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
	sr, err := cluster.NewScatterRouter(cluster.ScatterConfig{
		Map: pmap,
		Router: cluster.RouterConfig{
			ProbeInterval: probe,
			FailoverAfter: failoverAfter,
			Retry:         retry.Policy{MaxAttempts: retries},
		},
	})
	if err != nil {
		return err
	}
	defer sr.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ln, sr.Handler(), fmt.Sprintf("scatter router listening on %s (%d partitions)", ln.Addr(), pmap.Len()))
}

// serve announces the listener, serves handler on it until SIGINT or
// SIGTERM, then stops accepting and waits for in-flight HTTP exchanges.
// The signal handler is installed before the announcement, so a harness
// that signals the moment it reads "listening on" always gets the graceful
// drain, never the default kill; it stays installed, so a repeated signal
// cannot cut short the checkpoint that follows the drain.
func serve(ln net.Listener, handler http.Handler, announce string) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("pcserved: %s\n", announce)
	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case sig := <-stop:
		fmt.Printf("pcserved: %s, draining\n", sig)
	case err := <-serveErr:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadSeed assembles the startup database: the snapshot when it exists
// (restart path), else the -db file list (first-boot path), else an empty
// start. Like pcause identify, each -db file may be a whole PCDB01 database
// or a single raw fingerprint, detected by magic.
func loadSeed(dbList, snapshot string, threshold float64) (*fingerprint.DB, error) {
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			return samplefile.LoadDB(snapshot)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	if dbList == "" {
		return nil, nil
	}
	if threshold == 0 {
		threshold = fingerprint.DefaultThreshold
	}
	db := fingerprint.NewDB(threshold)
	for _, name := range strings.Split(dbList, ",") {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if bytes.HasPrefix(data, []byte("PCDB01")) {
			sub, err := fingerprint.ReadDB(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for _, e := range sub.Entries() {
				db.Add(e.Name, e.FP)
			}
			continue
		}
		var fp bitset.Set
		if err := fp.UnmarshalBinary(data); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		db.Add(filepath.Base(name), &fp)
	}
	return db, nil
}
