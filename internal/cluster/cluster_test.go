package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"approxnoc/internal/cluster"
	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

const testTiles = 16

// testServeConfig is the per-node gateway shape the cluster tests use:
// exact operation (threshold 0) so delivered blocks must equal their
// inputs bit for bit on any node.
func testServeConfig() serve.Config {
	return serve.Config{
		Nodes: testTiles, Scheme: compress.DIVaxx, ThresholdPct: 0,
		Shards: 2, QueueDepth: 1024,
	}
}

// testClusterConfig is an N-node cluster with the prober disabled:
// membership changes only when a test makes them (or a client reports
// a failure), so transitions are deterministic.
func testClusterConfig(nodes int) cluster.Config {
	return cluster.Config{
		Nodes: nodes,
		Serve: testServeConfig(),
		View:  cluster.ViewConfig{HeartbeatEvery: -1},
	}
}

// testBlocks builds a deterministic mixed population of data blocks.
func testBlocks(n, words int, seed uint64) []*value.Block {
	rng := sim.NewRand(seed)
	blocks := make([]*value.Block, n)
	for i := range blocks {
		blk := value.NewBlock(words, value.Int32, true)
		for w := range blk.Words {
			blk.Words[w] = uint32(rng.Uint64())
		}
		blocks[i] = blk
	}
	return blocks
}

// TestClusterReplayBitIdentical is the subsystem's acceptance test: a
// deterministic request population replayed through a 4-node cluster
// at threshold 0 must deliver every block bit-identical to the
// single-gateway path — flow placement must be invisible to the data.
func TestClusterReplayBitIdentical(t *testing.T) {
	const records = 600
	blocks := testBlocks(records, 16, 1234)

	// Reference: the same requests through one plain gateway.
	ref := make([][]uint32, records)
	gw, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks {
		src := i % testTiles
		res, err := gw.Do(serve.Request{Src: src, Dst: (src + 3) % testTiles, Block: blk})
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = append([]uint32(nil), res.Block.Words...)
	}
	gw.Close()

	cl, err := cluster.New(testClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.Client(cluster.ClientConfig{})
	defer client.Close()

	nodesSeen := make(map[string]bool)
	for i, blk := range blocks {
		src := i % testTiles
		call := client.Go(serve.Request{Src: src, Dst: (src + 3) % testTiles, Block: blk, Tag: uint64(i)}, nil)
		<-call.Done
		if call.Err != nil {
			t.Fatalf("record %d: %v", i, call.Err)
		}
		if call.Res.Tag != uint64(i) {
			t.Fatalf("record %d: tag %d not preserved", i, call.Res.Tag)
		}
		nodesSeen[call.Node] = true
		got := call.Res.Block.Words
		if len(got) != len(ref[i]) {
			t.Fatalf("record %d: %d words, want %d", i, len(got), len(ref[i]))
		}
		for w := range got {
			if got[w] != ref[i][w] {
				t.Fatalf("record %d word %d: cluster %#x != gateway %#x (node %s)",
					i, w, got[w], ref[i][w], call.Node)
			}
			if got[w] != blk.Words[w] {
				t.Fatalf("record %d word %d: threshold-0 delivery %#x differs from input %#x",
					i, w, got[w], blk.Words[w])
			}
		}
	}
	if len(nodesSeen) < 2 {
		t.Fatalf("all %d flows landed on %v — ring not spreading", records, nodesSeen)
	}
}

// TestClusterFlowAffinity: every request of one flow lands on the same
// node — the placement invariant that keeps per-flow codec state
// consistent.
func TestClusterFlowAffinity(t *testing.T) {
	cl, err := cluster.New(testClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.Client(cluster.ClientConfig{})
	defer client.Close()

	blocks := testBlocks(40, 8, 9)
	owner := make(map[[2]int]string)
	for i, blk := range blocks {
		src := i % 5
		dst := (src + 1) % testTiles
		res := client.Go(serve.Request{Src: src, Dst: dst, Block: blk}, nil)
		<-res.Done
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		key := [2]int{src, dst}
		if prev, ok := owner[key]; ok && prev != res.Node {
			t.Fatalf("flow %v moved %s -> %s with stable membership", key, prev, res.Node)
		}
		owner[key] = res.Node
	}
}

// TestClusterDrain retires a node gracefully mid-lifetime: the drained
// node leaves the ring, its flows remap, and requests keep succeeding.
func TestClusterDrain(t *testing.T) {
	cl, err := cluster.New(testClusterConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.Client(cluster.ClientConfig{})
	defer client.Close()

	blocks := testBlocks(60, 8, 77)
	send := func(i int) string {
		t.Helper()
		src := i % testTiles
		call := client.Go(serve.Request{Src: src, Dst: (src + 1) % testTiles, Block: blocks[i]}, nil)
		<-call.Done
		if call.Err != nil {
			t.Fatalf("record %d: %v", i, call.Err)
		}
		return call.Node
	}
	for i := 0; i < 30; i++ {
		send(i)
	}
	if err := cl.Drain("n1"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var drained cluster.Member
	for _, m := range cl.View().Members() {
		if m.ID == "n1" {
			drained = m
		}
	}
	if drained.State != cluster.StateLeft {
		t.Fatalf("drained node state %v, want left", drained.State)
	}
	if cl.View().Ring().Has("n1") {
		t.Fatal("drained node still on ring")
	}
	for i := 30; i < 60; i++ {
		if node := send(i); node == "n1" {
			t.Fatalf("record %d routed to drained node", i)
		}
	}
	if got := cl.NodeIDs(); len(got) != 2 {
		t.Fatalf("live nodes %v, want 2", got)
	}
	if err := cl.Drain("n1"); err == nil {
		t.Fatal("double drain should fail")
	}
}

// TestClusterHTTPEndpoints drives the membership endpoint: members
// listing, external join, drain, and DialSeed bootstrapping a remote
// view from it.
func TestClusterHTTPEndpoints(t *testing.T) {
	cl, err := cluster.New(testClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ts := httptest.NewServer(cl.Handler())
	defer ts.Close()

	get := func() (gen uint64, states map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/cluster/members")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Generation uint64 `json:"generation"`
			Members    []struct {
				ID, Addr, State string
			} `json:"members"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		states = make(map[string]string)
		for _, m := range body.Members {
			states[m.ID] = m.State
		}
		return body.Generation, states
	}

	gen0, states := get()
	if states["n0"] != "healthy" || states["n1"] != "healthy" {
		t.Fatalf("initial states %v", states)
	}

	// External join lands as joining.
	body, _ := json.Marshal(map[string]string{"id": "ext1", "addr": "127.0.0.1:1"})
	resp, err := http.Post(ts.URL+"/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %s", resp.Status)
	}
	gen1, states := get()
	if states["ext1"] != "joining" || gen1 <= gen0 {
		t.Fatalf("after join: gen %d->%d states %v", gen0, gen1, states)
	}
	// Duplicate join conflicts.
	resp, _ = http.Post(ts.URL+"/cluster/join", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate join status %s", resp.Status)
	}

	// JoinSeed client helper: same path, new id.
	if err := cluster.JoinSeed(ts.URL, "ext2", "127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.JoinSeed(ts.URL, "ext2", "127.0.0.1:2"); err == nil {
		t.Fatal("duplicate JoinSeed should fail")
	}

	// Drain an owned node over HTTP.
	resp, err = http.Post(ts.URL+"/cluster/drain?id=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %s", resp.Status)
	}
	_, states = get()
	if states["n1"] != "left" {
		t.Fatalf("after drain: %v", states)
	}
	// Draining an unowned member conflicts.
	resp, _ = http.Post(ts.URL+"/cluster/drain?id=ext1", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("drain unowned status %s", resp.Status)
	}

	// DialSeed bootstraps a view mirroring the seed's table.
	v, err := cluster.DialSeed(ts.URL, cluster.ViewConfig{HeartbeatEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	mirror := make(map[string]cluster.State)
	for _, m := range v.Members() {
		mirror[m.ID] = m.State
	}
	if mirror["n0"] != cluster.StateHealthy || mirror["ext1"] != cluster.StateJoining || mirror["n1"] != cluster.StateLeft {
		t.Fatalf("DialSeed view %v", mirror)
	}
	if v.Ring().Has("n1") {
		t.Fatal("seeded view placed a left node on the ring")
	}
}

// TestClusterMetricsExposition: the cluster_* families render through
// the obs registry with live values.
func TestClusterMetricsExposition(t *testing.T) {
	cl, err := cluster.New(testClusterConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := obs.NewRegistry()
	cl.View().RegisterMetrics(reg)

	client := cl.Client(cluster.ClientConfig{})
	defer client.Close()
	for i, blk := range testBlocks(20, 8, 3) {
		src := i % testTiles
		call := client.Go(serve.Request{Src: src, Dst: (src + 1) % testTiles, Block: blk}, nil)
		<-call.Done
		if call.Err != nil {
			t.Fatal(call.Err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`cluster_nodes{state="healthy"} 3`,
		"cluster_ring_nodes 3",
		"cluster_generation",
		"cluster_rebalances_total",
		"cluster_failovers_total 0",
		"cluster_overload_retries_total",
		"cluster_probes_total{result=\"ok\"}",
		`cluster_node_requests_total{node="n0"}`,
		`cluster_node_generation{node="n2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestClusterLoadgenSmoke runs the cluster loadgen end to end and
// sanity-checks the measurement it reports.
func TestClusterLoadgenSmoke(t *testing.T) {
	res, err := cluster.RunLoopback(
		testClusterConfig(2),
		cluster.ClientConfig{},
		cluster.Loadgen{Loadgen: serve.Loadgen{Conns: 2, Depth: 8, Words: 16, Records: 400}, Nodes: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 400 || res.RecordsPerSec <= 0 || res.Elapsed <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	var total uint64
	for _, n := range res.PerNode {
		total += n
	}
	if total < 400 {
		t.Fatalf("per-node requests %v sum %d < records", res.PerNode, total)
	}
}
