package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// These tests pin the sharded runtime's equivalence contract: for any shard
// count, the fixpoint state — visible tuples per node and predicate, prov
// and ruleExec row sets — matches the single-shard engine exactly,
// from-scratch and under delete/re-insert churn. They run the same random
// topologies through "serial" reference nodes (one shard each, one delta per
// ingest, synchronous transport), a one-shard scheduler and a multi-shard
// scheduler, and diff the outcomes.

// randomLinks generates a connected random graph: a spanning tree plus a few
// extra edges, deduplicated (parallel links with distinct costs drive the
// MIN-aggregate cascade into pathological transient churn on dense graphs —
// a property of the workload, not of the runtime under test).
func randomLinks(n int, extra int, rng *rand.Rand) [][2]int {
	seen := map[[2]int]bool{}
	var edges [][2]int
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	for k := 0; k < extra; k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return edges
}

// edgeCost derives a stable cost from the endpoints, so insert and churn
// scripts always agree on each link's tuple. An explicit cost table (from a
// topology) overrides it.
func edgeCost(e [2]int, costs map[[2]int]int64) int64 {
	if c, ok := costs[e]; ok {
		return c
	}
	return int64(1 + (7*e[0]+3*e[1])%5)
}

func linkTup(u, v int, cost int64) types.Tuple {
	return types.NewTuple("link", types.Node(types.NodeID(u)), types.Node(types.NodeID(v)), types.Int(cost))
}

// stateFingerprint renders one node's observable fixpoint state.
func nodeState(n *Node, preds []string) string {
	out := ""
	for _, pred := range preds {
		for _, tu := range n.Tuples(pred) {
			out += pred + ":" + tu.String() + "\n"
		}
	}
	for _, row := range n.Store.ProvRows() {
		out += "prov|" + row + "\n"
	}
	for _, row := range n.Store.RuleExecRows() {
		out += "re|" + row + "\n"
	}
	return out
}

// runSched drives one scheduler cluster through the insert/churn script.
func runSched(t *testing.T, prog *Program, mode ProvMode, nNodes, shards, workers int,
	edges [][2]int, churn [][2]int, costs map[[2]int]int64) *Scheduler {
	t.Helper()
	s := NewScheduler(prog, mode, nNodes, shards, workers)
	for _, e := range edges {
		cost := edgeCost(e, costs)
		s.InsertBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
		s.InsertBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("insert fixpoint: %v", err)
	}
	// Churn: retract a subset, re-run, re-insert half of it, re-run.
	for i, e := range churn {
		cost := edgeCost(e, costs)
		s.DeleteBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
		s.DeleteBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
		if i%2 == 0 {
			s.InsertBase(types.NodeID(e[0]), linkTup(e[0], e[1], cost))
			s.InsertBase(types.NodeID(e[1]), linkTup(e[1], e[0], cost))
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("churn fixpoint: %v", err)
	}
	return s
}

// runSerialRef computes the same script on single-shard nodes ingesting one
// delta at a time (plain NewNode + synchronous FIFO transport). The
// transport cascades to global quiescence inside every InsertBase/
// DeleteBase, so each op is followed by a Settle releasing the retraction
// protocol's staged re-derivations — the serial analogue of the simulator's
// idle-point release.
func runSerialRef(t *testing.T, prog *Program, mode ProvMode, nNodes int,
	edges [][2]int, churn [][2]int, costs map[[2]int]int64) []*Node {
	t.Helper()
	tr := &refTransport{}
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), prog, mode, tr, nil)
	}
	tr.nodes = nodes
	for _, e := range edges {
		cost := edgeCost(e, costs)
		nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
	}
	Settle(nodes...)
	for i, e := range churn {
		cost := edgeCost(e, costs)
		nodes[e[0]].DeleteBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].DeleteBase(linkTup(e[1], e[0], cost))
		Settle(nodes...)
		if i%2 == 0 {
			nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
			nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
			Settle(nodes...)
		}
	}
	for _, n := range nodes {
		if n.Err != nil {
			t.Fatalf("serial reference: %v", n.Err)
		}
	}
	return nodes
}

// refTransport delivers messages synchronously in FIFO order.
type refTransport struct {
	nodes []*Node
	queue []struct {
		from, to types.NodeID
		m        *Message
	}
	busy bool
}

func (tr *refTransport) Send(from, to types.NodeID, m *Message) {
	tr.queue = append(tr.queue, struct {
		from, to types.NodeID
		m        *Message
	}{from, to, m})
	if tr.busy {
		return
	}
	tr.busy = true
	defer func() { tr.busy = false }()
	for len(tr.queue) > 0 {
		q := tr.queue[0]
		tr.queue = tr.queue[1:]
		tr.nodes[q.to].HandleMessage(q.from, q.m)
	}
}

func diffStates(t *testing.T, label string, nNodes int, preds []string,
	ref func(i int) *Node, got func(i int) *Node) {
	t.Helper()
	for i := 0; i < nNodes; i++ {
		want, have := nodeState(ref(i), preds), nodeState(got(i), preds)
		if want != have {
			t.Errorf("%s: node %d state mismatch\n--- serial ---\n%s--- sharded ---\n%s", label, i, want, have)
			return
		}
	}
}

// shardedEquivalence checks serial/sharded agreement on one random graph.
// extra > 0 adds cycle-closing edges; withChurn retracts (and re-inserts
// half of) a random subset of ALL edges — spanning-tree and cycle-closing
// alike. Disconnecting deletions and deletions that kill the cheapest route
// on a cycle are exactly the retractions the two-phase over-delete/
// re-derive discipline exists for (see ARCHITECTURE.md "Deletion
// semantics"); before it, unbounded-cost programs diverged here by
// count-to-infinity and churn had to be pinned to stub edges.
func shardedEquivalence(t *testing.T, prog *Program, mode ProvMode, preds []string, seed int64, extra int, withChurn bool) {
	t.Helper()
	const nNodes = 12
	rng := rand.New(rand.NewSource(seed))
	edges := randomLinks(nNodes, extra, rng)
	var churn [][2]int
	if withChurn {
		for _, e := range edges {
			if rng.Intn(3) == 0 {
				churn = append(churn, e)
			}
		}
	}
	equivalenceOn(t, prog, mode, preds, nNodes, edges, churn, nil)
}

// equivalenceOn runs one explicit insert/churn script through the serial
// reference and several scheduler configurations and diffs the outcomes.
// costs overrides edgeCost per (u,v) pair when non-nil.
func equivalenceOn(t *testing.T, prog *Program, mode ProvMode, preds []string,
	nNodes int, edges, churn [][2]int, costs map[[2]int]int64) {
	t.Helper()
	serial := runSerialRef(t, prog, mode, nNodes, edges, churn, costs)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			s := runSched(t, prog, mode, nNodes, shards, workers, edges, churn, costs)
			label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			diffStates(t, label, nNodes, preds,
				func(i int) *Node { return serial[i] },
				func(i int) *Node { return s.Node(i) })
		}
	}

	// Determinism across repeated sharded runs: byte accounting and round
	// counts must reproduce exactly.
	a := runSched(t, prog, mode, nNodes, 4, 4, edges, churn, costs)
	b := runSched(t, prog, mode, nNodes, 4, 4, edges, churn, costs)
	if a.TotalBytes != b.TotalBytes || a.Rounds != b.Rounds {
		t.Errorf("sharded runs diverge: bytes %d vs %d, rounds %d vs %d",
			a.TotalBytes, b.TotalBytes, a.Rounds, b.Rounds)
	}
	for i := range a.SentBytes {
		if a.SentBytes[i] != b.SentBytes[i] || a.SentMsgs[i] != b.SentMsgs[i] {
			t.Fatalf("node %d counters diverge across identical sharded runs", i)
		}
	}
}

// topoScript converts a topology's links into the insert script, with churn
// picking arbitrary links — transit and spanning-tree tiers included, not
// just the stub-stub edges whose removal provably keeps MINCOST convergent.
// The two-phase retraction discipline makes arbitrary deletions terminate,
// so churn no longer needs to dodge disconnecting or cycle-breaking links.
func topoScript(topo *topology.Topology, churnN int) (edges, churn [][2]int, costs map[[2]int]int64) {
	costs = map[[2]int]int64{}
	for _, l := range topo.Links {
		e := [2]int{int(l.U), int(l.V)}
		edges = append(edges, e)
		costs[e] = l.Cost
	}
	for i := 0; i < len(topo.Links) && i < churnN; i++ {
		// Stride across the link list so the churn sample spans tiers.
		l := topo.Links[(i*7)%len(topo.Links)]
		churn = append(churn, [2]int{int(l.U), int(l.V)})
	}
	return edges, churn, costs
}

func TestShardedMinCostMatchesSerial(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	// The unbounded-cost MINCOST program runs over both ring and meshy
	// random topologies, with churn hitting arbitrary links (ring edges
	// whose removal disconnects the logical cycle into a line, and
	// cycle-closing mesh edges whose removal kills cheapest routes). The
	// two-phase retraction discipline makes every combination terminate;
	// TestSchedulerMatchesSimnet (internal/core) covers the full
	// transit-stub benchmark topology against the simulator.
	preds := []string{"link", "pathCost", "bestPathCost"}
	for seed := int64(1); seed <= 2; seed++ {
		ring := topology.Ring(12, rand.New(rand.NewSource(seed)))
		edges, churn, costs := topoScript(ring, 3)
		equivalenceOn(t, prog, ProvReference, preds, ring.N, edges, churn, costs)
		equivalenceOn(t, prog, ProvNone, preds, ring.N, edges, churn, costs)
	}
	shardedEquivalence(t, prog, ProvReference, preds, 5, 4, true)
	shardedEquivalence(t, prog, ProvNone, preds, 6, 4, true)
}

func TestShardedPathVectorMatchesSerial(t *testing.T) {
	prog, err := Compile(apps.PathVector())
	if err != nil {
		t.Fatal(err)
	}
	preds := []string{"link", "path", "bestPath"}
	shardedEquivalence(t, prog, ProvReference, preds, 7, 3, true)
}

// TestShardedReachChurnMatchesSerial exercises delete/re-derive churn over a
// CYCLIC recursive program (derivations support each other around cycles —
// the hardest case for exact counting retraction) in both provenance modes.
func TestShardedReachChurnMatchesSerial(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`
r1 reach(@Y,X) :- link(@X,Y,C).
r2 reach(@Z,X) :- link(@Y,Z,C), reach(@Y,X).
`))
	if err != nil {
		t.Fatal(err)
	}
	preds := []string{"link", "reach"}
	for seed := int64(1); seed <= 3; seed++ {
		shardedEquivalence(t, prog, ProvReference, preds, seed, 6, true)
		shardedEquivalence(t, prog, ProvNone, preds, seed, 6, true)
	}
}

// TestShardedNodeUnderSyncTransport drives sharded nodes through the
// HandleMessage path (self-driven node-local rounds, as simnet and deploy
// do) rather than the scheduler, and checks the same fixpoint.
func TestShardedNodeUnderSyncTransport(t *testing.T) {
	prog, err := Compile(apps.MinCost())
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Ring(8, rand.New(rand.NewSource(11)))
	nNodes := topo.N
	edges, _, costs := topoScript(topo, 0)

	serial := runSerialRef(t, prog, ProvReference, nNodes, edges, nil, costs)

	tr := &refTransport{}
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = NewNodeSharded(types.NodeID(i), prog, ProvReference, tr, nil, 3)
	}
	tr.nodes = nodes
	for _, e := range edges {
		cost := edgeCost(e, costs)
		nodes[e[0]].InsertBase(linkTup(e[0], e[1], cost))
		nodes[e[1]].InsertBase(linkTup(e[1], e[0], cost))
	}
	Settle(nodes...) // release retraction staging from improvement-driven evictions
	for _, n := range nodes {
		if n.Err != nil {
			t.Fatal(n.Err)
		}
	}
	preds := []string{"link", "pathCost", "bestPathCost"}
	diffStates(t, "sync transport shards=3", nNodes, preds,
		func(i int) *Node { return serial[i] },
		func(i int) *Node { return nodes[i] })
}

// TestRoundCreatesAndDestroysDerivation: one round inserts the first body
// atom of a derivation and deletes the second, so the derivation exists
// neither before nor after the round. The fire phase must emit nothing for
// it: an Insert and a Delete fired from the two atoms' items would cancel
// only if applied in that order, and a Delete that overtakes its Insert is
// dropped, leaving a phantom head and ruleExec row.
func TestRoundCreatesAndDestroysDerivation(t *testing.T) {
	prog, err := Compile(ndlog.MustParse(`r1 h(@X,A,B) :- p(@X,A), q(@X,B).`))
	if err != nil {
		t.Fatal(err)
	}
	p := types.NewTuple("p", types.Node(0), types.Int(1))
	q := types.NewTuple("q", types.Node(0), types.Int(2))
	for _, shards := range []int{1, 2, 4} {
		s := NewScheduler(prog, ProvReference, 1, shards, 1)
		s.InsertBase(0, q)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Delete q ahead of inserting p, so q's fire item comes first.
		s.DeleteBase(0, q)
		s.InsertBase(0, p)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		n := s.Node(0)
		if got := n.Tuples("h"); len(got) != 0 {
			t.Errorf("shards=%d: phantom derivation %v", shards, got)
		}
		if rows := n.Store.NumRuleExec(); rows != 0 {
			t.Errorf("shards=%d: %d ruleExec rows for a derivation that never existed", shards, rows)
		}
		// The derivation still appears and retracts normally.
		s.InsertBase(0, q)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := n.Tuples("h"); len(got) != 1 {
			t.Errorf("shards=%d: h = %v after re-inserting q, want one tuple", shards, got)
		}
		s.DeleteBase(0, p)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got, rows := n.Tuples("h"), n.Store.NumRuleExec(); len(got) != 0 || rows != 0 {
			t.Errorf("shards=%d: %v and %d ruleExec rows survive deleting p", shards, got, rows)
		}
	}
}
