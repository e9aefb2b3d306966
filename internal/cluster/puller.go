// puller.go: the follower side of WAL shipping — the incremental pull
// loop with retry/backoff and frame dedup, and the segment-shipping
// bootstrap for fresh followers and for followers whose position the
// primary compacted away.
package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"probablecause/internal/faults"
	"probablecause/internal/obs"
	"probablecause/internal/prng"
	"probablecause/internal/retry"
	"probablecause/internal/samplefile"
	"probablecause/internal/server"
	"probablecause/internal/store"
)

// hashString folds a follower id into a prng seed.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

var (
	cPullBatches  = obs.C("cluster.repl.pull_batches")
	cPullRecords  = obs.C("cluster.repl.pull_records")
	cPullErrors   = obs.C("cluster.repl.pull_errors")
	cFrameDropped = obs.C("cluster.repl.frames_dropped")
	cFrameDuped   = obs.C("cluster.repl.frames_duplicated")
	gReplLag      = obs.G("cluster.repl.lag")
)

// ErrNeedsBootstrap reports a follower whose WAL position was compacted
// away on the primary: incremental pull cannot proceed, the follower
// must re-seed from the primary's segments (BootstrapFollowerSegments into
// a fresh dir).
var ErrNeedsBootstrap = errors.New("cluster: primary compacted past our position; segment bootstrap required")

// DefaultPullInterval paces the poll loop when the follower is caught
// up with the primary.
const DefaultPullInterval = 25 * time.Millisecond

// PullConfig parameterizes the follower's replication client.
type PullConfig struct {
	// ID identifies this follower in acks (set from NodeConfig.ID).
	ID string
	// Primary is the primary's base URL (set by StartFollower/Follow).
	Primary string
	// Client issues the pull requests; nil selects http.DefaultClient.
	// Chaos tests install a faults.Injector transport here.
	Client *http.Client
	// Interval paces polls when caught up; 0 selects DefaultPullInterval.
	Interval time.Duration
	// Retry shapes backoff between failed pulls.
	Retry retry.Policy
	// Injector, when non-nil, draws a fate for every received frame —
	// drop (re-pull) or duplicate (dedup exercise) — so replication is
	// chaos-testable without a lossy network.
	Injector *faults.Injector
}

func (c PullConfig) withDefaults() PullConfig {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Interval <= 0 {
		c.Interval = DefaultPullInterval
	}
	return c
}

// Puller is the follower's replication loop: poll the primary's WAL
// stream from the local next sequence, apply each frame through the
// deterministic fold, piggyback the applied watermark as an ack, and
// flip the service ready once caught up to the primary's durable edge.
type Puller struct {
	svc    *server.Service
	cfg    PullConfig
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	primary string
	err     error // terminal condition (ErrNeedsBootstrap), nil while running
}

// StartPuller begins pulling. Stop releases the loop.
func StartPuller(svc *server.Service, cfg PullConfig) *Puller {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Puller{
		svc:     svc,
		cfg:     cfg.withDefaults(),
		cancel:  cancel,
		done:    make(chan struct{}),
		primary: cfg.Primary,
	}
	go p.run(ctx)
	return p
}

// Stop halts the loop and waits for it to exit.
func (p *Puller) Stop() {
	p.cancel()
	<-p.done
}

// Err reports the loop's terminal condition (e.g. ErrNeedsBootstrap);
// nil while the loop is healthy or merely retrying transients.
func (p *Puller) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Puller) primaryURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.primary
}

func (p *Puller) run(ctx context.Context) {
	defer close(p.done)
	attempt := 0
	// Deterministic per-follower jitter: two followers pulling the same
	// dead primary decorrelate, and a seeded chaos run reproduces its
	// exact retry schedule.
	jitter := prng.New(prng.Hash(uint64(len(p.cfg.ID)), hashString(p.cfg.ID)))
	for ctx.Err() == nil {
		applied, caughtUp, err := p.pullOnce(ctx)
		switch {
		case err == nil:
			attempt = 0
			if caughtUp {
				if !p.svc.Ready() {
					p.svc.SetReady(true)
				}
				p.sleep(ctx, p.cfg.Interval)
			}
		case errors.Is(err, ErrNeedsBootstrap):
			p.mu.Lock()
			p.err = err
			p.mu.Unlock()
			obs.Errorf("repl pull needs bootstrap", "id", p.cfg.ID, "applied", applied)
			return
		case ctx.Err() != nil:
			return
		default:
			if obs.On() {
				cPullErrors.Inc()
			}
			attempt++
			delay := p.cfg.Retry.Delay(attempt, jitter)
			obs.Warnf("repl pull failed", "id", p.cfg.ID, "attempt", attempt, "delay", delay, "err", err)
			p.sleep(ctx, delay)
		}
	}
}

func (p *Puller) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// pullOnce issues one stream request and applies its frames. caughtUp
// reports whether the local applied position reached the primary's
// durable edge as of this pull.
func (p *Puller) pullOnce(ctx context.Context) (applied uint64, caughtUp bool, err error) {
	l := p.svc.WAL()
	if l == nil {
		return 0, false, server.ErrEnrollmentDisabled
	}
	from := l.NextSeq()
	applied = p.svc.AppliedSeq()
	url := fmt.Sprintf("%s/v1/repl/stream?from=%d&id=%s&acked=%d", p.primaryURL(), from, p.cfg.ID, applied)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return applied, false, err
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return applied, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return applied, false, ErrNeedsBootstrap
	default:
		return applied, false, fmt.Errorf("cluster: stream returned %s", resp.Status)
	}
	synced, _ := strconv.ParseUint(resp.Header.Get(hdrSynced), 10, 64)
	if obs.On() {
		cPullBatches.Inc()
	}

	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	records := 0
frames:
	for {
		var f Frame
		if derr := dec.Decode(&f); derr != nil {
			if errors.Is(derr, io.EOF) {
				break
			}
			// A torn response (primary died mid-write, injected fault):
			// apply what arrived, re-pull the rest.
			err = fmt.Errorf("cluster: stream decode: %w", derr)
			break
		}
		times := 1
		if p.cfg.Injector != nil {
			switch p.cfg.Injector.FrameFate() {
			case faults.FrameDrop:
				// Discard this frame and the rest of the batch — applying a
				// later frame after a dropped one would be a sequence gap.
				if obs.On() {
					cFrameDropped.Inc()
				}
				break frames
			case faults.FrameDup:
				if obs.On() {
					cFrameDuped.Inc()
				}
				times = 2
			}
		}
		for i := 0; i < times; i++ {
			if _, aerr := p.svc.ApplyReplicated(f.Seq, f.Payload); aerr != nil {
				if errors.Is(aerr, server.ErrReplicationGap) {
					// Shouldn't happen on an in-order stream; re-pull.
					err = aerr
					break frames
				}
				return p.svc.AppliedSeq(), false, aerr
			}
		}
		records++
	}
	applied = p.svc.AppliedSeq()
	if obs.On() {
		cPullRecords.Add(int64(records))
		if synced >= applied {
			gReplLag.Set(int64(synced - applied))
		}
	}
	return applied, err == nil && applied >= synced, err
}

// BootstrapMeta describes a fetched segment snapshot.
type BootstrapMeta struct {
	// Watermark is the first WAL sequence NOT reflected in the shipped
	// segments (the checkpoint watermark the follower boots at).
	Watermark uint64
	// Floor is the first sequence the follower must pull — the replay
	// floor covering unconverged sessions. Pass it as wal
	// Options.StartSeq so the local log starts at the primary's numbering.
	Floor uint64
}

// BootstrapFollowerSegments seeds storeDir with the primary's committed
// segment files fetched from /v1/repl/segments — the follower bootstrap,
// which never materializes the database in heap on either side. Files land
// under temporary names and the manifest (sent last) is committed by atomic
// rename only after every segment is fully on disk and fsynced, so a torn
// download leaves nothing a later BootDurable would trust. Call only on an
// empty store directory; an established follower recovers from its own
// manifest and WAL instead.
func BootstrapFollowerSegments(ctx context.Context, storeDir, primary string, client *http.Client) (BootstrapMeta, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/repl/segments", nil)
	if err != nil {
		return BootstrapMeta{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return BootstrapMeta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return BootstrapMeta{}, fmt.Errorf("cluster: segment snapshot returned %s", resp.Status)
	}
	watermark, err := strconv.ParseUint(resp.Header.Get(hdrWatermark), 10, 64)
	if err != nil {
		return BootstrapMeta{}, fmt.Errorf("cluster: segment snapshot missing %s header", hdrWatermark)
	}
	floor, err := strconv.ParseUint(resp.Header.Get(hdrFloor), 10, 64)
	if err != nil {
		return BootstrapMeta{}, fmt.Errorf("cluster: segment snapshot missing %s header", hdrFloor)
	}
	if err := os.MkdirAll(storeDir, 0o777); err != nil {
		return BootstrapMeta{}, err
	}
	br := bufio.NewReader(resp.Body)
	var manifest []byte
	for {
		// Each frame is one newline-terminated JSON header followed by
		// exactly Size raw bytes; a clean EOF before a header ends the
		// stream. Reading the header line directly (rather than through a
		// json.Decoder) keeps the reader positioned at the blob's first byte.
		line, err := br.ReadBytes('\n')
		if err != nil {
			if errors.Is(err, io.EOF) && len(line) == 0 {
				break
			}
			return BootstrapMeta{}, fmt.Errorf("cluster: segment stream frame: %w", err)
		}
		var fr segmentFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			return BootstrapMeta{}, fmt.Errorf("cluster: segment stream frame: %w", err)
		}
		if fr.Size < 0 {
			return BootstrapMeta{}, fmt.Errorf("cluster: segment stream frame for %s has negative size", fr.Name)
		}
		blob := make([]byte, fr.Size)
		if _, err := io.ReadFull(br, blob); err != nil {
			return BootstrapMeta{}, fmt.Errorf("cluster: segment stream body of %s: %w", fr.Name, err)
		}
		if fr.Name == store.ManifestFile {
			manifest = blob
			continue
		}
		if fr.Name != filepath.Base(fr.Name) || fr.Name == "" {
			return BootstrapMeta{}, fmt.Errorf("cluster: segment stream names invalid file %q", fr.Name)
		}
		if err := samplefile.WriteFileAtomic(filepath.Join(storeDir, fr.Name), blob); err != nil {
			return BootstrapMeta{}, err
		}
	}
	if manifest == nil {
		return BootstrapMeta{}, fmt.Errorf("cluster: segment stream ended without a manifest (torn download)")
	}
	if err := samplefile.WriteFileAtomic(filepath.Join(storeDir, store.ManifestFile), manifest); err != nil {
		return BootstrapMeta{}, err
	}
	if err := samplefile.SyncDir(storeDir); err != nil {
		return BootstrapMeta{}, err
	}
	// Count the shipped entries by reopening what landed — cheap (headers
	// only would suffice, but VerifyDir-grade load also catches transit
	// corruption before the follower trusts the files).
	if err := store.VerifyDir(storeDir); err != nil {
		return BootstrapMeta{}, fmt.Errorf("cluster: shipped segments failed verification: %w", err)
	}
	return BootstrapMeta{Watermark: watermark, Floor: floor}, nil
}
