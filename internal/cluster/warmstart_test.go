package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"approxnoc/internal/cluster"
	"approxnoc/internal/compress"
	"approxnoc/internal/oracle"
	"approxnoc/internal/serve"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// warmBlocks builds a block population dominated by a small pattern
// alphabet, so replaying it actually populates the PMT dictionaries
// (testBlocks' uniform noise rarely promotes anything).
func warmBlocks(n, words int, seed uint64) []*value.Block {
	rng := sim.NewRand(seed)
	alpha := [6]value.Word{0, 0x000000FF, 0xDEADBEEF, 0x7F000001, 0x00010000, 0xFFFFFFFE}
	blocks := make([]*value.Block, n)
	for i := range blocks {
		blk := value.NewBlock(words, value.Int32, true)
		for w := range blk.Words {
			if rng.Bool(0.75) {
				blk.Words[w] = alpha[rng.Intn(len(alpha))]
			} else {
				blk.Words[w] = rng.Uint32()
			}
		}
		blocks[i] = blk
	}
	return blocks
}

// replay drives blocks through the cluster client with a pipelined
// window, asserting threshold-0 bit-identical delivery, and calls
// onComplete(i) as each record finishes.
func replay(t *testing.T, client *cluster.Client, blocks []*value.Block, depth int, onComplete func(i int, call *cluster.Call)) {
	t.Helper()
	done := make(chan *cluster.Call, depth)
	outstanding, sent, completed := 0, 0, 0
	for completed < len(blocks) {
		for outstanding < depth && sent < len(blocks) {
			src := sent % testTiles
			client.Go(serve.Request{
				Src: src, Dst: (src + 5) % testTiles,
				Block: blocks[sent], Tag: uint64(sent),
			}, done)
			outstanding++
			sent++
		}
		call := <-done
		outstanding--
		completed++
		if call.Err != nil {
			t.Fatalf("call %d (node %s, %d failovers): %v",
				call.Req.Tag, call.Node, call.Failovers, call.Err)
		}
		i := int(call.Res.Tag)
		for w, word := range call.Res.Block.Words {
			if word != blocks[i].Words[w] {
				t.Fatalf("call %d word %d: delivered %#x != input %#x (node %s)",
					i, w, word, blocks[i].Words[w], call.Node)
			}
		}
		if onComplete != nil {
			onComplete(i, call)
		}
	}
}

// auditNode runs the oracle's PMT-synchronization check over every
// ordered codec pair in every pool of an owned node's gateway, and
// requires zero decode mismatches — the bit-exactness invariant the
// dictionary transfer must never corrupt.
func auditNode(t *testing.T, cl *cluster.Cluster, id string) {
	t.Helper()
	gw, ok := cl.Gateway(id)
	if !ok {
		t.Fatalf("no live owned gateway for %q", id)
	}
	if err := gw.AuditDicts(func(pool int, fab *compress.Fabric) error {
		for src := 0; src < fab.Nodes(); src++ {
			for dst := 0; dst < fab.Nodes(); dst++ {
				if src == dst {
					continue
				}
				if err := oracle.CheckPMTSync(fab.Codec(src), fab.Codec(dst), src, dst); err != nil {
					return fmt.Errorf("node %s pool %d: %w", id, pool, err)
				}
			}
		}
		for i := 0; i < fab.Nodes(); i++ {
			if mm, ok := fab.Codec(i).(interface{ DecodeMismatches() uint64 }); ok && mm.DecodeMismatches() != 0 {
				return fmt.Errorf("node %s pool %d codec %d: %d decode mismatches", id, pool, i, mm.DecodeMismatches())
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// maxGeneration reports the highest dictionary generation across an
// owned node's pools — zero means nothing was ever learned there.
func maxGeneration(t *testing.T, cl *cluster.Cluster, id string) uint64 {
	t.Helper()
	gw, ok := cl.Gateway(id)
	if !ok {
		t.Fatalf("no live owned gateway for %q", id)
	}
	var max uint64
	if err := gw.AuditDicts(func(pool int, fab *compress.Fabric) error {
		for i := 0; i < fab.Nodes(); i++ {
			if s, ok := compress.As[compress.DictSnapshotter](fab.Codec(i)); ok && s.Generation() > max {
				max = s.Generation()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return max
}

// TestClusterWarmStartJoin: a node added to a warm cluster with
// Config.WarmStart set receives its ring neighbor's full dictionary
// image before joining the view. With no traffic between the transfer
// and the check, the newcomer's image must be byte-identical to its
// donor's, its dictionaries in oracle-verified sync, and the enlarged
// cluster must keep delivering bit-identical blocks.
func TestClusterWarmStartJoin(t *testing.T) {
	cfg := testClusterConfig(2)
	cfg.WarmStart = true
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	client := cl.Client(cluster.ClientConfig{})
	replay(t, client, warmBlocks(600, 16, 77), 16, nil)
	client.Close()

	newID, err := cl.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	newSnap, err := cl.SnapshotDicts(newID)
	if err != nil {
		t.Fatal(err)
	}
	matched := ""
	for _, id := range cl.NodeIDs() {
		if id == newID {
			continue
		}
		snap, err := cl.SnapshotDicts(id)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(newSnap, snap) {
			matched = id
			break
		}
	}
	if matched == "" {
		t.Fatal("warm-started node's dictionary image matches no existing member")
	}
	if gen := maxGeneration(t, cl, newID); gen == 0 {
		t.Fatalf("donor %s transferred nothing: newcomer generation still 0", matched)
	}
	auditNode(t, cl, newID)

	// The enlarged cluster still serves exactly.
	client = cl.Client(cluster.ClientConfig{})
	defer client.Close()
	replay(t, client, warmBlocks(400, 16, 78), 16, nil)
}

// TestClusterWarmStartKillMidReplay is the dictionary-replication
// chaos test: replicate a node's dictionary image to its ring-adjacent
// successor, then kill the node in the middle of a replay. Every call
// — failovers included — must still deliver bit-identical at threshold
// 0, and after convergence every surviving node's pools must pass the
// oracle PMT-sync audit. The suite runs under -race in
// scripts/check.sh, so this doubles as the concurrency shakedown of
// snapshot transfer against live traffic.
func TestClusterWarmStartKillMidReplay(t *testing.T) {
	const (
		records = 1500
		depth   = 16
		killAt  = records / 3
	)
	cfg := testClusterConfig(3)
	cfg.WarmStart = true
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Phase 1: warm every node's dictionaries.
	client := cl.Client(cluster.ClientConfig{FailoverBudget: 6})
	replay(t, client, warmBlocks(600, 16, 91), depth, nil)
	client.Close()

	victim := cl.NodeIDs()[len(cl.NodeIDs())-1]
	toID, ok := cl.View().Ring().Adjacent(victim)
	if !ok || toID == victim {
		t.Fatalf("ring adjacency of %s returned %q, %v", victim, toID, ok)
	}
	snap, err := cl.SnapshotDicts(victim)
	if err != nil {
		t.Fatalf("snapshot %s: %v", victim, err)
	}
	adopted, kept, err := cl.RestoreDicts(toID, snap)
	if err != nil {
		t.Fatalf("restore %s -> %s: %v", victim, toID, err)
	}
	if adopted+kept == 0 {
		t.Fatal("replication reconciled nothing: no codec adopted or kept")
	}

	// Phase 2: replay and kill the victim a third of the way in.
	client = cl.Client(cluster.ClientConfig{FailoverBudget: 6})
	defer client.Close()
	killed := false
	replay(t, client, warmBlocks(records, 16, 92), depth, func(i int, call *cluster.Call) {
		if killed && call.Node == victim && i >= killAt+2*depth {
			// Calls this far past the kill point were issued after the
			// kill (the pipeline holds at most depth tags); completing on
			// the dead node would mean failover routed wrong. Earlier tags
			// may legitimately drain off the dying wire.
			t.Fatalf("call %d completed on killed node %s", i, victim)
		}
		if !killed && i >= killAt {
			if err := cl.Kill(victim); err != nil {
				t.Fatalf("kill %s: %v", victim, err)
			}
			killed = true
		}
	})
	if !killed {
		t.Fatal("replay finished before the kill point")
	}

	// After convergence every survivor — the warm-started successor
	// included — must hold oracle-synchronized dictionaries.
	for _, id := range cl.NodeIDs() {
		if id == victim {
			continue
		}
		auditNode(t, cl, id)
	}
}
