package cluster

// Scatter-gather coordinator tests: keyed routing, merge behavior over
// empty and degenerate topologies, partial-result refusal when a
// partition is down, failover inside one partition, the topology
// endpoint, and the partition handshake rejecting misconfigured nodes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"probablecause/internal/server"
)

// jsonBody marshals v into a request-body reader.
func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// scatterRouterConfig is the per-partition router template used across
// these tests: fast probes, failover after 3 missed probes.
func scatterRouterConfig() RouterConfig {
	return RouterConfig{
		ProbeInterval:  10 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		FailoverAfter:  3,
	}
}

// partitionScoped returns a server-config hook scoping a node to
// partition ord of pmap.
func partitionScoped(pmap *PartitionMap, ord int) func(*server.Config) {
	return func(c *server.Config) {
		c.Partition = server.PartitionConfig{
			Name: pmap.Partition(ord).Name,
			NS:   pmap.Namespace(ord),
			Owns: pmap.OwnsFunc(ord),
		}
	}
}

// startScatter serves a ScatterRouter over the given partition specs.
func startScatter(t *testing.T, rc RouterConfig, specs []PartitionSpec) (*ScatterRouter, string, func()) {
	t.Helper()
	m, err := NewPartitionMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewScatterRouter(ScatterConfig{Map: m, Router: rc})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: sr.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return sr, "http://" + ln.Addr().String(), func() {
		srv.Close()
		sr.Close()
	}
}

// waitScatterReady blocks until the coordinator reports every partition
// servable.
func waitScatterReady(t *testing.T, client *http.Client, url string) {
	t.Helper()
	waitFor(t, 5*time.Second, "scatter readyz", func() bool {
		resp, err := client.Get(url + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// devicesOwnedBy picks the first n synthetic device indices whose names
// hash to partition want.
func devicesOwnedBy(pmap *PartitionMap, want, n int) []int {
	var out []int
	for i := 0; len(out) < n; i++ {
		if pmap.Owner(fmt.Sprintf("dev-%d", i)) == want {
			out = append(out, i)
		}
	}
	return out
}

// startPartitionPrimary boots a partition-scoped primary for pmap's
// partition ord.
func startPartitionPrimary(t *testing.T, pmap *PartitionMap, ord, minISR int) *testNode {
	t.Helper()
	name := pmap.Partition(ord).Name
	n := startNode(t, name+"-primary", t.TempDir(), nodeOptions{minISR: minISR, cfg: partitionScoped(pmap, ord)})
	n.node.StartPrimary()
	return n
}

// twoPartitionSpecs is the standard 2×1 topology: one scoped primary per
// partition.
func twoPartitionSpecs(t *testing.T) (*PartitionMap, []PartitionSpec, []*testNode) {
	t.Helper()
	pmap := mapFromSpec(t, "p0=http://placeholder,p1=http://placeholder")
	n0 := startPartitionPrimary(t, pmap, 0, 0)
	n1 := startPartitionPrimary(t, pmap, 1, 0)
	specs := []PartitionSpec{
		{Name: "p0", Backends: []string{n0.url()}},
		{Name: "p1", Backends: []string{n1.url()}},
	}
	return pmap, specs, []*testNode{n0, n1}
}

func TestScatterKeyedRoutingAndMergedIdentify(t *testing.T) {
	pmap, specs, nodes := twoPartitionSpecs(t)
	defer nodes[0].close()
	defer nodes[1].close()
	_, url, stop := startScatter(t, scatterRouterConfig(), specs)
	defer stop()

	client := &http.Client{Timeout: 5 * time.Second}
	waitScatterReady(t, client, url)

	// Enroll two devices per partition through the coordinator; each must
	// land on (exactly) its owning partition's primary.
	devs := append(devicesOwnedBy(pmap, 0, 2), devicesOwnedBy(pmap, 1, 2)...)
	for _, i := range devs {
		states := enrollDevice(t, client, url, i)
		last := states[len(states)-1]
		if !last.Promoted {
			t.Fatalf("dev-%d not promoted through scatter router", i)
		}
		owner := pmap.Owner(fmt.Sprintf("dev-%d", i))
		if want := pmap.Namespace(owner); last.EntryID%want.Stride != want.Base {
			t.Fatalf("dev-%d acked EntryID %d outside partition %d namespace", i, last.EntryID, owner)
		}
		// The enroll-status scatter finds the session wherever it lives.
		resp, err := client.Get(url + fmt.Sprintf("/v1/enroll/sess-%d/status", i))
		if err != nil {
			t.Fatal(err)
		}
		var st server.EnrollState
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("enroll status for sess-%d: %d", i, resp.StatusCode)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.EntryID != last.EntryID {
			t.Fatalf("scattered status EntryID %d, acked %d", st.EntryID, last.EntryID)
		}
	}
	for _, i := range devs {
		owner := pmap.Owner(fmt.Sprintf("dev-%d", i))
		for ord, n := range nodes {
			_, present := n.svc.DB().Get(fmt.Sprintf("dev-%d", i))
			if present != (ord == owner) {
				t.Fatalf("dev-%d on partition %d: present=%v, owner=%d", i, ord, present, owner)
			}
		}
	}

	// Identify through the coordinator resolves devices from both
	// partitions, with globally-namespaced ids.
	for _, i := range devs {
		resp, err := client.Post(url+"/v1/identify", "application/json",
			jsonBody(t, map[string]any{"len": obsBits, "positions": deviceObs(obsBits, i, 9).Positions()}))
		if err != nil {
			t.Fatal(err)
		}
		var v server.VerdictJSON
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("identify dev-%d: %d", i, resp.StatusCode)
		}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if !v.Match || v.Name != fmt.Sprintf("dev-%d", i) {
			t.Fatalf("identify dev-%d verdict %+v", i, v)
		}
		owner := pmap.Owner(v.Name)
		if ns := pmap.Namespace(owner); v.ID%ns.Stride != ns.Base {
			t.Fatalf("dev-%d merged id %d outside owner %d namespace", i, v.ID, owner)
		}
	}

	// Aggregated stats sum entries across partitions.
	resp, err := client.Get(url + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Entries    int `json:"entries"`
		Partitions []struct {
			Name    string `json:"name"`
			Entries int    `json:"entries"`
		} `json:"partitions"`
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Entries != len(devs) || len(stats.Partitions) != 2 {
		t.Fatalf("aggregated stats %+v, want %d entries over 2 partitions", stats, len(devs))
	}

	// Keyed delete lands on the owner too.
	victim := devs[0]
	req, _ := http.NewRequest(http.MethodDelete, url+fmt.Sprintf("/v1/db?name=dev-%d", victim), nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("keyed delete: %d", dresp.StatusCode)
	}
	if _, present := nodes[pmap.Owner(fmt.Sprintf("dev-%d", victim))].svc.DB().Get(fmt.Sprintf("dev-%d", victim)); present {
		t.Fatalf("dev-%d still present after keyed delete", victim)
	}
}

// TestScatterEmptyPartitionMerges: a partition with an empty database
// contributes the empty-scan identity verdict and never corrupts the
// merge.
func TestScatterEmptyPartitionMerges(t *testing.T) {
	pmap, specs, nodes := twoPartitionSpecs(t)
	defer nodes[0].close()
	defer nodes[1].close()
	_, url, stop := startScatter(t, scatterRouterConfig(), specs)
	defer stop()

	client := &http.Client{Timeout: 5 * time.Second}
	waitScatterReady(t, client, url)

	// Fully empty cluster: identify answers no-match with the sentinel id.
	es := deviceObs(obsBits, 3, 0)
	resp, err := client.Post(url+"/v1/identify", "application/json",
		jsonBody(t, map[string]any{"len": es.Len(), "positions": es.Positions()}))
	if err != nil {
		t.Fatal(err)
	}
	var v server.VerdictJSON
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identify on empty cluster: %d", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if v.Match || v.ID != -1 || v.Matches != 0 {
		t.Fatalf("empty-cluster verdict %+v, want no-match sentinel", v)
	}

	// Enroll only partition-0-owned devices, leaving partition 1 empty.
	for _, i := range devicesOwnedBy(pmap, 0, 3) {
		enrollDevice(t, client, url, i)
	}
	if n := nodes[1].svc.DB().Len(); n != 0 {
		t.Fatalf("partition 1 should be empty, has %d entries", n)
	}
	for _, i := range devicesOwnedBy(pmap, 0, 3) {
		es := deviceObs(obsBits, i, 9)
		resp, err := client.Post(url+"/v1/identify", "application/json",
			jsonBody(t, map[string]any{"len": es.Len(), "positions": es.Positions()}))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if !v.Match || v.Name != fmt.Sprintf("dev-%d", i) {
			t.Fatalf("identify dev-%d with one empty partition: %+v", i, v)
		}
	}
}

// TestScatterSinglePartitionDegenerate: a 1-partition map is the
// identity topology — ids are unrenumbered and the coordinator adds no
// semantics over its one router.
func TestScatterSinglePartitionDegenerate(t *testing.T) {
	pmap := mapFromSpec(t, "solo=http://placeholder")
	if ns := pmap.Namespace(0); !ns.Identity() {
		t.Fatalf("single-partition namespace %+v is not identity", ns)
	}
	n := startPartitionPrimary(t, pmap, 0, 0)
	defer n.close()
	_, url, stop := startScatter(t, scatterRouterConfig(), []PartitionSpec{{Name: "solo", Backends: []string{n.url()}}})
	defer stop()

	client := &http.Client{Timeout: 5 * time.Second}
	waitScatterReady(t, client, url)
	for i := 0; i < 3; i++ {
		enrollDevice(t, client, url, i)
	}
	for i := 0; i < 3; i++ {
		es := deviceObs(obsBits, i, 9)
		resp, err := client.Post(url+"/v1/identify", "application/json",
			jsonBody(t, map[string]any{"len": es.Len(), "positions": es.Positions()}))
		if err != nil {
			t.Fatal(err)
		}
		var v server.VerdictJSON
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		want := n.svc.DB().Decide(es)
		if !v.Match || v.Name != want.Name || v.ID != want.Index || v.Distance != want.Distance {
			t.Fatalf("degenerate scatter verdict %+v diverged from node %+v", v, want)
		}
	}
}

// TestScatterRefusesPartialResults: with one partition dark the
// coordinator 503s identify (naming the partition) instead of serving a
// partial merge, turns unready, and keeps keyed traffic to the healthy
// partition flowing.
func TestScatterRefusesPartialResults(t *testing.T) {
	pmap, specs, nodes := twoPartitionSpecs(t)
	defer nodes[0].close()
	_, url, stop := startScatter(t, scatterRouterConfig(), specs)
	defer stop()

	client := &http.Client{Timeout: 10 * time.Second}
	waitScatterReady(t, client, url)
	for _, i := range devicesOwnedBy(pmap, 0, 2) {
		enrollDevice(t, client, url, i)
	}

	nodes[1].kill()
	// The probe loop needs a few intervals to mark p1 down.
	waitFor(t, 5*time.Second, "p1 marked unready", func() bool {
		resp, err := client.Get(url + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})

	es := deviceObs(obsBits, devicesOwnedBy(pmap, 0, 1)[0], 9)
	resp, err := client.Post(url+"/v1/identify", "application/json",
		jsonBody(t, map[string]any{"len": es.Len(), "positions": es.Positions()}))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("identify with dark partition: %d, want 503", resp.StatusCode)
	}
	if e.Error == "" || !strings.Contains(e.Error, "p1") {
		t.Fatalf("refusal should name partition p1: %q", e.Error)
	}

	// Keyed enroll to the surviving partition still works.
	i := devicesOwnedBy(pmap, 0, 3)[2]
	states := enrollDevice(t, client, url, i)
	if !states[len(states)-1].Promoted {
		t.Fatalf("keyed enroll to healthy partition failed with p1 dark")
	}
}

// TestScatterFailoverWithinPartition: killing one partition's primary
// promotes its follower and the coordinator resumes both scattered reads
// and keyed writes to that partition.
func TestScatterFailoverWithinPartition(t *testing.T) {
	pmap := mapFromSpec(t, "p0=http://placeholder,p1=http://placeholder")
	p0 := startPartitionPrimary(t, pmap, 0, 1)
	f0 := startNode(t, "p0-follower", t.TempDir(), nodeOptions{
		pull: PullConfig{Interval: 5 * time.Millisecond},
		cfg:  partitionScoped(pmap, 0),
	})
	if err := f0.node.StartFollower(p0.url()); err != nil {
		t.Fatal(err)
	}
	defer f0.close()
	p1 := startPartitionPrimary(t, pmap, 1, 0)
	defer p1.close()

	sr, url, stop := startScatter(t, scatterRouterConfig(), []PartitionSpec{
		{Name: "p0", Backends: []string{p0.url(), f0.url()}},
		{Name: "p1", Backends: []string{p1.url()}},
	})
	defer stop()

	client := &http.Client{Timeout: 10 * time.Second}
	waitScatterReady(t, client, url)
	// p0 runs with min-isr 1: its first enrollment waits for a follower ack,
	// so enroll once the follower's first pull has reported in.
	waitFor(t, 10*time.Second, "p0's tracker to list the follower", func() bool {
		_, ok := p0.node.Tracker().Progress()[f0.id]
		return ok
	})
	devs := append(devicesOwnedBy(pmap, 0, 2), devicesOwnedBy(pmap, 1, 1)...)
	for _, i := range devs {
		enrollDevice(t, client, url, i)
	}
	waitFor(t, 5*time.Second, "follower catch-up", func() bool {
		return f0.svc.AppliedSeq() >= p0.svc.AppliedSeq()
	})

	p0.kill()
	waitFor(t, 10*time.Second, "p0 failover to follower", func() bool {
		return sr.PartitionRouter(0).Primary() == f0.url()
	})

	// Scattered identify works again after the promotion.
	for _, i := range devs {
		es := deviceObs(obsBits, i, 9)
		resp, err := client.Post(url+"/v1/identify", "application/json",
			jsonBody(t, map[string]any{"len": es.Len(), "positions": es.Positions()}))
		if err != nil {
			t.Fatal(err)
		}
		var v server.VerdictJSON
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !v.Match || v.Name != fmt.Sprintf("dev-%d", i) {
			t.Fatalf("post-failover identify dev-%d: %d %+v", i, resp.StatusCode, v)
		}
	}

	// Keyed enroll to the promoted primary works.
	i := devicesOwnedBy(pmap, 0, 3)[2]
	states := enrollDevice(t, client, url, i)
	if !states[len(states)-1].Promoted {
		t.Fatal("post-failover keyed enroll did not promote")
	}
}

func TestScatterTopologyEndpoint(t *testing.T) {
	_, specs, nodes := twoPartitionSpecs(t)
	defer nodes[0].close()
	defer nodes[1].close()
	_, url, stop := startScatter(t, scatterRouterConfig(), specs)
	defer stop()

	client := &http.Client{Timeout: 5 * time.Second}
	waitScatterReady(t, client, url)
	resp, err := client.Get(url + "/v1/cluster/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo struct {
		KeyHash    string `json:"key_hash"`
		VNodes     int    `json:"vnodes_per_partition"`
		Partitions []struct {
			Name     string `json:"name"`
			Ordinal  int    `json:"ordinal"`
			IDBase   int    `json:"id_base"`
			IDStride int    `json:"id_stride"`
			Primary  string `json:"primary"`
			Backends []struct {
				URL     string `json:"url"`
				Healthy bool   `json:"healthy"`
				Role    string `json:"role"`
				Breaker string `json:"breaker"`
			} `json:"backends"`
		} `json:"partitions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if topo.KeyHash != "mix64(fnv1a-64(name))" || topo.VNodes != vnodesPerPartition || len(topo.Partitions) != 2 {
		t.Fatalf("topology header %+v", topo)
	}
	for ord, p := range topo.Partitions {
		if p.Ordinal != ord || p.IDBase != ord || p.IDStride != 2 {
			t.Fatalf("partition %d topology %+v", ord, p)
		}
		if p.Primary != nodes[ord].url() {
			t.Fatalf("partition %d primary %q, want %q", ord, p.Primary, nodes[ord].url())
		}
		if len(p.Backends) != 1 || !p.Backends[0].Healthy || p.Backends[0].Role != "primary" || p.Backends[0].Breaker == "" {
			t.Fatalf("partition %d backends %+v", ord, p.Backends)
		}
	}
}

// TestScatterPartitionHandshake: a node scoped to partition p1 but
// listed under p0 must be quarantined by the probe handshake — the
// coordinator stays unready for p0 rather than serving foreign ids.
func TestScatterPartitionHandshake(t *testing.T) {
	pmap := mapFromSpec(t, "p0=http://placeholder,p1=http://placeholder")
	wrong := startPartitionPrimary(t, pmap, 1, 0) // claims p1
	defer wrong.close()
	right := startPartitionPrimary(t, pmap, 1, 0)
	defer right.close()

	_, url, stop := startScatter(t, scatterRouterConfig(), []PartitionSpec{
		{Name: "p0", Backends: []string{wrong.url()}}, // misconfigured
		{Name: "p1", Backends: []string{right.url()}},
	})
	defer stop()

	client := &http.Client{Timeout: 5 * time.Second}
	// The handshake must keep p0 unready even though its backend is a
	// live, healthy primary — it belongs to the wrong partition.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			var body struct {
				Ready      bool `json:"ready"`
				Partitions []struct {
					Name  string `json:"name"`
					Ready bool   `json:"ready"`
				} `json:"partitions"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body.Ready {
				t.Fatalf("coordinator became ready with a misdirected p0 backend: %+v", body)
			}
			for _, p := range body.Partitions {
				if p.Name == "p0" && p.Ready {
					t.Fatalf("p0 reported ready through a p1-scoped node")
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}
