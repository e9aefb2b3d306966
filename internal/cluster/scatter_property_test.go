package cluster

// The partitioned cluster's core acceptance property: scatter-gather
// identify over a 2-partition cluster answers byte-identically to a
// single node scanning the union database serially. The oracle is a
// plain (dense-scan) ShardedDB rebuilt from the partitions' exports with
// cluster-global ids, encoded through the exact server wire path. Any
// divergence — distance, tie-break id, match count, field order, even a
// trailing byte — fails the comparison.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
	"probablecause/internal/server"
)

// sparseFP draws a random fingerprint with ~k set bits.
func sparseFP(src *prng.Source, bits, k int) *bitset.Set {
	fp := bitset.New(bits)
	for j := 0; j < k; j++ {
		fp.Set(int(src.Uint64() % uint64(bits)))
	}
	return fp
}

// postRaw posts body and returns the raw response bytes (newline and
// all) plus the status.
func postRaw(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// scatterOracle rebuilds the union database from the partition nodes'
// live exports: every entry re-inserted under its cluster-global id, in
// increasing id order so within-shard insertion order matches id order
// (the tie-break the merge contract relies on).
func scatterOracle(t *testing.T, pmap *PartitionMap, nodes []*testNode) *fingerprint.ShardedDB {
	t.Helper()
	oracle, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	var all []fingerprint.IDEntry
	for ord, n := range nodes {
		ns := pmap.Namespace(ord)
		for _, e := range n.svc.DB().ExportIDs() {
			all = append(all, fingerprint.IDEntry{ID: ns.Global(e.ID), Name: e.Name, FP: e.FP})
		}
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].ID < all[j-1].ID; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	for _, e := range all {
		oracle.AddWithID(e.ID, e.Name, e.FP)
	}
	return oracle
}

// wireBytes encodes a verdict exactly as the server's identify handler
// does: compact JSON plus a trailing newline.
func wireBytes(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

func TestScatterIdentifyByteIdenticalToSerialOracle(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pmap := mapFromSpec(t, "p0=http://placeholder,p1=http://placeholder")
			nodes := make([]*testNode, pmap.Len())
			specs := make([]PartitionSpec, pmap.Len())
			for ord := range nodes {
				ord := ord
				n := startNode(t, fmt.Sprintf("prop-p%d", ord), t.TempDir(), nodeOptions{cfg: func(c *server.Config) {
					partitionScoped(pmap, ord)(c)
					// Workers varies the dispatch parallelism the property
					// must be invariant to.
					c.Workers = workers
				}})
				n.node.StartPrimary()
				defer n.close()
				nodes[ord] = n
				specs[ord] = PartitionSpec{Name: pmap.Partition(ord).Name, Backends: []string{n.url()}}
			}
			_, url, stop := startScatter(t, scatterRouterConfig(), specs)
			defer stop()

			client := &http.Client{Timeout: 10 * time.Second}
			waitScatterReady(t, client, url)

			// Randomized corpus, keyed-routed through the coordinator.
			const bits, entries = 4096, 60
			src := prng.New(0x5CA77E4 + uint64(workers))
			fps := make([]*bitset.Set, entries)
			for i := range fps {
				fps[i] = sparseFP(src, bits, 80)
				body, _ := json.Marshal(map[string]any{
					"name": fmt.Sprintf("dev-%d", i), "len": bits, "positions": fps[i].Positions(),
				})
				if code, raw := postRaw(t, client, url+"/v1/db", body); code != http.StatusOK {
					t.Fatalf("db add dev-%d: %d %s", i, code, raw)
				}
			}
			if nodes[0].svc.DB().Len() == 0 || nodes[1].svc.DB().Len() == 0 {
				t.Fatalf("degenerate corpus split %d/%d — property needs both partitions populated",
					nodes[0].svc.DB().Len(), nodes[1].svc.DB().Len())
			}
			oracle := scatterOracle(t, pmap, nodes)
			if oracle.Len() != entries {
				t.Fatalf("oracle rebuilt %d entries, want %d", oracle.Len(), entries)
			}

			// Singles: near-duplicates of enrolled fingerprints (including
			// exact ties), then pure noise.
			queries := make([]*bitset.Set, 0, 2*entries)
			for q := 0; q < entries; q++ {
				es := fps[q].Clone()
				for j := 0; j < int(src.Uint64()%4); j++ {
					es.Set(int(src.Uint64() % uint64(bits)))
				}
				queries = append(queries, es)
			}
			for q := 0; q < entries; q++ {
				queries = append(queries, sparseFP(src, bits, 80))
			}
			for qi, es := range queries {
				body, _ := json.Marshal(map[string]any{"len": es.Len(), "positions": es.Positions()})
				code, raw := postRaw(t, client, url+"/v1/identify", body)
				if code != http.StatusOK {
					t.Fatalf("identify query %d: %d %s", qi, code, raw)
				}
				want := wireBytes(t, server.WireVerdict(oracle.Decide(es), false))
				if !bytes.Equal(raw, want) {
					t.Fatalf("query %d: scatter %q != oracle %q", qi, raw, want)
				}
			}

			// Batch: the same corpus in one shot, merged per query.
			type wireQuery struct {
				Len       int      `json:"len"`
				Positions []uint32 `json:"positions"`
			}
			req := struct {
				Queries []wireQuery `json:"queries"`
			}{}
			for _, es := range queries[:40] {
				req.Queries = append(req.Queries, wireQuery{Len: es.Len(), Positions: es.Positions()})
			}
			body, _ := json.Marshal(req)
			code, raw := postRaw(t, client, url+"/v1/identify-batch", body)
			if code != http.StatusOK {
				t.Fatalf("identify-batch: %d %s", code, raw)
			}
			wantBatch := server.BatchResponseJSON{}
			for _, es := range queries[:40] {
				wantBatch.Results = append(wantBatch.Results, server.WireVerdict(oracle.Decide(es), false))
			}
			if want := wireBytes(t, wantBatch); !bytes.Equal(raw, want) {
				t.Fatalf("batch: scatter %q != oracle %q", raw, want)
			}
		})
	}
}
