package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"probablecause/internal/cluster"
	"probablecause/internal/fingerprint"
	"probablecause/internal/retry"
	"probablecause/internal/server"
	"probablecause/internal/store"
	"probablecause/internal/wal"
)

// The serving stack, built in-process through the constructors pcserved
// uses, with pcserved's flag defaults plus only the flags a workload names.

// storeFlags are the -store.* flags a workload sets (0 keeps the default).
type storeFlags struct {
	flushEntries   int // -store.flush-entries
	compactSegment int // -store.compact-segments
}

// nodeConfig is pcserved's default serving configuration for a tiered
// node rooted at dir: -batch.window 500µs, -cache 4096, -store.backend
// tiered, -store.dir dir/store, every other flag at its zero default.
func nodeConfig(dir string, sf storeFlags, part server.PartitionConfig) server.Config {
	return server.Config{
		BatchWindow: 500 * time.Microsecond,
		CacheSize:   4096,
		Store: store.Config{
			Backend:         store.BackendTiered,
			Dir:             filepath.Join(dir, "store"),
			FlushEntries:    sf.flushEntries,
			CompactSegments: sf.compactSegment,
		},
		Partition: part,
	}
}

// enrollConfig is pcserved's -wal.dir enrollment with -wal.fsync batch.
func enrollConfig(dir string, startSeq uint64) server.EnrollConfig {
	return server.EnrollConfig{Dir: dir, WAL: wal.Options{Fsync: wal.FsyncBatch, StartSeq: startSeq}}
}

// node is one serving process: a durable service wrapped in a cluster
// node, listening on loopback.
type node struct {
	id   string
	dir  string
	cfg  server.Config
	svc  *server.Service
	cn   *cluster.Node
	addr string // host:port
	srv  *http.Server
	done chan struct{}
}

func (n *node) url() string { return "http://" + n.addr }

// bootNode boots a durable service in dir (seeding it when seed is
// non-nil) and serves it on a fresh loopback port. wrap, when non-nil,
// wraps the node's handler (the traced run's handler seam).
func bootNode(id, dir string, seed *fingerprint.DB, cfg server.Config, startSeq uint64, wrap func(addr string, h http.Handler) http.Handler) (*node, error) {
	svc, err := server.BootDurable(seed, cfg, enrollConfig(dir, startSeq))
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", id, err)
	}
	cn := cluster.NewNode(svc, cluster.NodeConfig{
		ID:   id,
		Pull: cluster.PullConfig{Retry: retry.Policy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cn.Close()
		svc.Close()
		return nil, err
	}
	n := &node{id: id, dir: dir, cfg: cfg, svc: svc, cn: cn, addr: ln.Addr().String(), done: make(chan struct{})}
	var h http.Handler = cn.Handler()
	if wrap != nil {
		h = wrap(n.addr, h)
	}
	n.srv = &http.Server{Handler: h}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	return n, nil
}

// close stops serving, then the role machinery, then the service.
func (n *node) close() {
	n.srv.Close()
	<-n.done
	n.cn.Close()
	n.svc.Close()
}

// router is the scatter-gather coordinator on loopback.
type router struct {
	sr   *cluster.ScatterRouter
	addr string
	srv  *http.Server
	done chan struct{}
}

func (r *router) url() string { return "http://" + r.addr }

func (r *router) close() {
	r.srv.Close()
	<-r.done
	r.sr.Close()
}

// startRouter serves pcserved's -mode=router -partitions coordinator.
// client is RouterConfig.Client (nil: http.DefaultClient, as pcserved).
func startRouter(spec string, client *http.Client) (*router, error) {
	pmap, err := cluster.ParsePartitions(spec)
	if err != nil {
		return nil, err
	}
	sr, err := cluster.NewScatterRouter(cluster.ScatterConfig{Map: pmap, Router: cluster.RouterConfig{Client: client}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sr.Close()
		return nil, err
	}
	r := &router{sr: sr, addr: ln.Addr().String(), srv: &http.Server{Handler: sr.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.srv.Serve(ln)
	}()
	return r, nil
}

// stack is one workload's deployment: the nodes, the router when the
// workload is a cluster, and the URL clients send to.
type stack struct {
	dir    string
	nodes  []*node // primaries first, in partition order
	router *router
	front  string
}

// stop shuts every process of the deployment down, keeping its
// directories.
func (s *stack) stop() {
	if s.router != nil {
		s.router.close()
		s.router = nil
	}
	for _, n := range s.nodes {
		n.close()
	}
	s.nodes = nil
}

// close tears the deployment down and removes its directories.
func (s *stack) close() {
	s.stop()
	os.RemoveAll(s.dir)
}

// waitReady polls /readyz on every node and the router until all are OK.
func (s *stack) waitReady(ctx context.Context) error {
	urls := []string{}
	for _, n := range s.nodes {
		urls = append(urls, n.url())
	}
	if s.router != nil {
		urls = append(urls, s.router.url())
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for _, u := range urls {
		for {
			resp, err := client.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never became ready: %w", u, errors.Join(ctx.Err(), err))
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
