package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/provquery"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/types"
)

// workload is one set of inputs the benchmark runs. Each stresses a
// different set of layers, so that an optimisation of one layer has a
// workload that exercises it and one that bypasses it.
type workload struct {
	name   string
	op     string // what one primary operation is
	simnet bool   // driven by the discrete-event simulator
	prog   func() *ndlog.Program
	setup  func(seed int64) (instance, error)
	report func(r *result) []string // the workload's metrics under their own names
}

var workloads = []*workload{
	// Insert-only bulk maintenance to fixpoint: engine, types and
	// provenance do the work; DRed release and provquery are idle.
	{
		name:   "mincost-converge",
		op:     "convergence",
		simnet: true,
		prog:   apps.MinCost,
		setup:  setupConverge,
		report: func(r *result) []string {
			return []string{fmt.Sprintf("%-18s %.4f s (median of %d)", "converge_s", median(r.rec.opDur), len(r.rec.opDur))}
		},
	},
	// Link churn on the sharded round scheduler: deletion and DRed
	// release, list-valued tuples, interning. Simnet and provquery are
	// bypassed.
	{
		name:  "pathvector-churn",
		op:    "batch",
		prog:  apps.PathVector,
		setup: setupChurn,
		report: func(r *result) []string {
			return []string{
				tail("churn_batch_ms_p50", r.rec.opDur, 0.5, 1e3, "ms"),
				tail("churn_batch_ms_p90", r.rec.opDur, 0.9, 1e3, "ms"),
			}
		},
	},
	// Closed-loop provenance queries with the cache on while links flap:
	// provquery, simnet hops and algebra, with cache invalidation writing
	// alongside the reads. The engine does little.
	{
		name:   "query-flap",
		op:     "query",
		simnet: true,
		prog:   apps.MinCost,
		setup:  setupQueryFlap,
		report: func(r *result) []string {
			return []string{
				tail("query_us_p50", r.rec.opDur, 0.5, 1e6, "us"),
				tail("query_us_p90", r.rec.opDur, 0.9, 1e6, "us"),
				fmt.Sprintf("%-18s %.1f 1/s", "queries_per_s", float64(len(r.rec.opDur))/sum(r.rec.opDur)),
				fmt.Sprintf("%-18s %.4f sim_ms", "query_sim_ms_p50", median(r.rec.simLat)),
				tail("flap_ms_p50", r.rec.updDur, 0.5, 1e3, "ms"),
				fmt.Sprintf("%-18s %.3f kB", "flap_wire_kb", float64(r.total[cUpdateWire])/1e3/float64(max(r.total[cUpdates], 1))),
			}
		},
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// compileSeconds times the ndlog parse and the engine compile of a program.
func compileSeconds(prog func() *ndlog.Program) float64 {
	t0 := time.Now()
	if _, err := engine.Compile(prog()); err != nil {
		panic(err) // the built-in programs always compile
	}
	return time.Since(t0).Seconds()
}

// clusterCounters reads a simulated cluster's deterministic counters.
func clusterCounters(c *core.Cluster) counters {
	var k counters
	for i, h := range c.Hosts {
		k[cDeltas] += h.Engine.DeltasProcessed()
		k[cRules] += h.Engine.RulesFired()
		k[cMsgs] += c.Net.SentMsgs[i]
		k[cCacheHits] += h.Query.CacheHits
		k[cCacheMisses] += h.Query.CacheMisses
		k[cInvalidations] += h.Query.Invalidations
	}
	k[cEvents] = c.Sim.Steps()
	k[cDropped] = c.Net.DroppedMsgs
	return k
}

// storeRows sums the prov, ruleExec and parent rows of the nodes' stores.
func storeRows(nodes []*engine.Node) [3]int {
	var rows [3]int
	for _, n := range nodes {
		rows[0] += n.Store.NumProv()
		rows[1] += n.Store.NumRuleExec()
		rows[2] += n.Store.NumParents()
	}
	return rows
}

func clusterStoreRows(c *core.Cluster) [3]int {
	nodes := make([]*engine.Node, len(c.Hosts))
	for i, h := range c.Hosts {
		nodes[i] = h.Engine
	}
	return storeRows(nodes)
}

func tupleRows(c *core.Cluster, pred string) func(types.NodeID) []types.Tuple {
	return func(n types.NodeID) []types.Tuple { return c.Hosts[n].Engine.Tuples(pred) }
}

// warmUp runs one cycle without oracles, so the timed phase starts with
// warm caches and intern tables.
func warmUp(in instance) error {
	r := &recorder{}
	in.cycle(r)
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %s", r.failures[0])
	}
	return nil
}

// --- mincost-converge ----------------------------------------------------

// converge runs MINCOST with reference provenance on a 200-node
// transit-stub network from empty tables to global quiescence, once per
// operation, on a fresh cluster each time.
type converge struct {
	topo   *topology.Topology
	oracle *linkState // built on first use
	next   *core.Cluster
	last   *core.Cluster // converged by the last operation, kept live for heap_mb
	acc    counters
	tr     *tracer
}

func setupConverge(seed int64) (instance, error) {
	topo := topology.TransitStub(topology.DefaultTransitStub(2), rand.New(rand.NewSource(seed)))
	w := &converge{topo: topo}
	c, err := w.build()
	w.next = c
	return w, err
}

func (w *converge) build() (*core.Cluster, error) {
	return core.NewCluster(core.Config{Topo: w.topo, Prog: apps.MinCost(), Mode: engine.ProvReference})
}

func (w *converge) trace(t *tracer) { w.tr = t }

func (w *converge) cycle(r *recorder) {
	c := w.next
	w.next = nil
	if c == nil {
		var err error
		r.harness(func() {
			// Collect the previous cluster before building the next, so
			// every convergence starts from a heap like a fresh process's
			// instead of sweeping its predecessor's garbage.
			w.last = nil
			runtime.GC()
			c, err = w.build()
		})
		if err != nil {
			r.fail(err.Error())
			return
		}
	}
	if w.tr != nil {
		w.tr.wrap(c)
	}
	t0 := r.begin("convergence")
	r.child(kBase, func() { c.Sim.RunUntil(0) }) // the link tuples are injected at time 0
	_, err := c.RunToFixpoint()
	r.op(r.end(t0), true, true)
	if err != nil {
		r.fail(err.Error())
	}
	k := clusterCounters(c)
	k[cOps] = 1
	k[cWire] = c.Net.TotalBytes
	w.acc = w.acc.add(k)
	w.last = c
	r.verify(func() error {
		if w.oracle == nil {
			w.oracle = newLinkState(w.topo, nil)
		}
		return w.oracle.checkMinCost(tupleRows(c, "bestPathCost"))
	})
}

func (w *converge) counters() counters { return w.acc }

func (w *converge) storeRows() [3]int { return clusterStoreRows(w.last) }

// --- pathvector-churn ----------------------------------------------------

const (
	// churnLinks is the number of stub-stub links a batch retracts: the
	// Fig 10 churn rate.
	churnLinks = 10
	// churnPartitions is the number of seeded partitions of the stub-stub
	// links into batches that make up a cycle. More than one evens out
	// which links happen to be retracted together.
	churnPartitions = 2
)

// fixedTopology is the paper's 100-node transit-stub network, the same one
// the repository's go test benchmarks use. The churn and query workloads
// run on it and take their seed for the operations alone: a cycle then
// touches every stub-stub link of one graph, so runs with different seeds
// differ in the order and grouping of the same work, not in the graph.
func fixedTopology() *topology.Topology {
	return topology.TransitStub(topology.DefaultTransitStub(1), rand.New(rand.NewSource(1)))
}

// churn runs PATHVECTOR with reference provenance through the round
// scheduler at the host's shard count. Each batch retracts a seeded set of
// stub-stub links, runs to fixpoint, restores them and runs to fixpoint
// again, so every batch starts from the same state. A cycle's batches
// retract every stub-stub link churnPartitions times, grouped by seeded
// permutations.
type churn struct {
	topo    *topology.Topology
	s       *engine.Scheduler
	batches []churnBatch
	full    *linkState // oracles, built on first use
	acc     counters
}

type churnBatch struct {
	links  []topology.Link
	tuples []nodeTuple // both directions of every link
	oracle *linkState
}

type nodeTuple struct {
	node types.NodeID
	t    types.Tuple
}

func setupChurn(seed int64) (instance, error) {
	topo := fixedTopology()
	prog, err := engine.Compile(apps.PathVector())
	if err != nil {
		return nil, err
	}
	s := engine.NewScheduler(prog, engine.ProvReference, topo.N, engine.EffectiveShards(engine.AutoShards), 0)
	for _, l := range topo.Links {
		s.InsertBase(l.U, apps.LinkTuple(l.U, l.V, l.Cost))
		s.InsertBase(l.V, apps.LinkTuple(l.V, l.U, l.Cost))
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	w := &churn{topo: topo, s: s}
	rng := rand.New(rand.NewSource(seed))
	for range churnPartitions {
		order := rng.Perm(len(topo.StubStubLinks))
		for ; len(order) >= churnLinks; order = order[churnLinks:] {
			w.batches = append(w.batches, newChurnBatch(topo, order[:churnLinks]))
		}
	}
	return w, warmUp(w)
}

func newChurnBatch(topo *topology.Topology, stubStub []int) churnBatch {
	var batch churnBatch
	for _, i := range stubStub {
		l := topo.Links[topo.StubStubLinks[i]]
		batch.links = append(batch.links, l)
		batch.tuples = append(batch.tuples,
			nodeTuple{l.U, apps.LinkTuple(l.U, l.V, l.Cost)}, nodeTuple{l.V, apps.LinkTuple(l.V, l.U, l.Cost)})
	}
	return batch
}

func (w *churn) trace(*tracer) {}

func (w *churn) cycle(r *recorder) {
	for i := range w.batches {
		b := &w.batches[i]
		var err1, err2 error
		t0 := r.begin("retract")
		for _, nt := range b.tuples {
			w.s.DeleteBase(nt.node, nt.t)
		}
		r.child(kSched, func() { err1 = w.s.Run() })
		d := r.end(t0)
		r.verify(func() error {
			if b.oracle == nil {
				b.oracle = newLinkState(w.topo, b.links)
			}
			return b.oracle.checkPathVector(w.rows)
		})
		t1 := r.begin("restore")
		for _, nt := range b.tuples {
			w.s.InsertBase(nt.node, nt.t)
		}
		r.child(kSched, func() { err2 = w.s.Run() })
		d += r.end(t1)
		r.op(d, true, true)
		w.acc[cOps]++
		if err := errors.Join(err1, err2); err != nil {
			r.fail(err.Error())
		}
		r.verify(func() error {
			if w.full == nil {
				w.full = newLinkState(w.topo, nil)
			}
			return w.full.checkPathVector(w.rows)
		})
	}
}

func (w *churn) rows(n types.NodeID) []types.Tuple { return w.s.Node(int(n)).Tuples("bestPath") }

func (w *churn) counters() counters {
	k := w.acc
	for i := 0; i < w.s.NumNodes(); i++ {
		n := w.s.Node(i)
		k[cDeltas] += n.DeltasProcessed()
		k[cRules] += n.RulesFired()
		k[cMsgs] += w.s.SentMsgs[i]
	}
	k[cWire] = w.s.TotalBytes
	k[cRounds] = w.s.Rounds
	return k
}

func (w *churn) storeRows() [3]int {
	nodes := make([]*engine.Node, w.s.NumNodes())
	for i := range nodes {
		nodes[i] = w.s.Node(i)
	}
	return storeRows(nodes)
}

// --- query-flap ----------------------------------------------------------

const (
	queriesPerFlap = 500
	// queryDeadline bounds each query in virtual time: a query that has not
	// answered by then counts as failed instead of hanging the run.
	queryDeadline = 10 * simnet.Second
)

// queryFlap is a closed loop with one client and one query outstanding:
// the client queries the provenance polynomial of a seeded bestPathCost
// tuple from a seeded issuer and drives the query to completion, with the
// §6.1 cache on. After every queriesPerFlap queries one stub-stub link
// flaps, which invalidates cached results. A cycle flaps every stub-stub
// link whose loss keeps the network connected once, in a seeded order: a
// flap that cut the network in two would strand the retractions of the far
// side, since the simulated network drops what it cannot route.
type queryFlap struct {
	c        *core.Cluster
	full     *linkState
	graph    *provquery.CentralGraph
	want     map[types.ID]types.ID // digest of the canonical central polynomial per target
	verified map[types.ID]types.ID // digests of answers already found equal to want
	targets  []core.TupleRef
	queries  []queryInput
	flaps    []topology.Link
	acc      counters
}

type queryInput struct {
	issuer types.NodeID
	target int
}

func setupQueryFlap(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	topo := fixedTopology()
	c, err := core.NewCluster(core.Config{
		Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvReference,
		UDF: provquery.Polynomial{}, Strategy: provquery.BFS, CacheOn: true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.RunToFixpoint(); err != nil {
		return nil, err
	}
	// The reference answers come from centralized provenance of the same
	// topology. Every flap restores the link set, so they stay valid.
	central, err := core.NewCluster(core.Config{Topo: topo, Prog: apps.MinCost(), Mode: engine.ProvCentralized})
	if err != nil {
		return nil, err
	}
	if _, err := central.RunToFixpoint(); err != nil {
		return nil, err
	}
	server := central.Hosts[central.Cfg.Central].Engine
	prov, exec := server.Table("prov"), server.Table("ruleExec")
	if prov == nil || exec == nil {
		return nil, errors.New("central server holds no provenance")
	}
	w := &queryFlap{
		c:        c,
		graph:    provquery.NewCentralGraph(prov.Tuples(), exec.Tuples()),
		want:     map[types.ID]types.ID{},
		verified: map[types.ID]types.ID{},
		targets:  c.TuplesOf("bestPathCost"),
	}
	for _, i := range rng.Perm(len(topo.StubStubLinks)) {
		if l := topo.Links[topo.StubStubLinks[i]]; connectedWithout(topo, l) {
			w.flaps = append(w.flaps, l)
		}
	}
	for range len(w.flaps) * queriesPerFlap {
		w.queries = append(w.queries, queryInput{types.NodeID(rng.Intn(topo.N)), rng.Intn(len(w.targets))})
	}
	w.full = newLinkState(topo, nil)
	return w, warmUp(w)
}

func (w *queryFlap) trace(t *tracer) { t.wrap(w.c) }

func (w *queryFlap) cycle(r *recorder) {
	for f, l := range w.flaps {
		for _, q := range w.queries[f*queriesPerFlap : (f+1)*queriesPerFlap] {
			w.query(r, q)
		}
		w.flap(r, l)
	}
}

func (w *queryFlap) query(r *recorder, q queryInput) {
	c, ref := w.c, w.targets[q.target]
	var answer []byte
	done := false
	var answeredAt simnet.Time
	issued := c.Sim.Now()
	bytes0 := c.Net.TotalBytes
	t0 := r.begin("query")
	r.child(kIssue, func() {
		c.Query(q.issuer, ref.VID, ref.Loc, func(p []byte) { answer, done, answeredAt = p, true, c.Sim.Now() })
	})
	err := c.RunUntil(issued + queryDeadline)
	r.op(r.end(t0), true, false)
	w.acc[cOps]++
	w.acc[cWire] += c.Net.TotalBytes - bytes0
	switch {
	case err != nil:
		r.fail(fmt.Sprintf("query %s from node %d: %v", ref.Tuple, q.issuer, err))
		return
	case !done:
		r.fail(fmt.Sprintf("query %s (VID %s) from node %d: no answer within %v of virtual time", ref.Tuple, ref.VID, q.issuer, time.Duration(queryDeadline)))
		return
	}
	lat := answeredAt - issued
	w.acc[cSimLatNs] += int64(lat)
	r.simLat = append(r.simLat, float64(lat)/float64(simnet.Millisecond))
	r.verify(func() error {
		for i, h := range c.Hosts {
			if p := h.Query.Pending(); p != 0 {
				return fmt.Errorf("query %s from node %d: node %d holds %d pending query records", ref.Tuple, q.issuer, i, p)
			}
		}
		digest := types.HashBytes(answer)
		if w.verified[digest] == ref.VID {
			return nil
		}
		got, err := provquery.DecodePolynomial(answer)
		if err != nil {
			return fmt.Errorf("query %s from node %d: %v", ref.Tuple, q.issuer, err)
		}
		want, ok := w.want[ref.VID]
		if !ok {
			want = types.HashString(canonical(w.graph.Polynomial(ref.VID)))
			w.want[ref.VID] = want
		}
		if types.HashString(canonical(got)) != want {
			return fmt.Errorf("query %s from node %d: answer %s differs from the central graph's", ref.Tuple, q.issuer, got)
		}
		w.verified[digest] = ref.VID
		return nil
	})
}

func (w *queryFlap) flap(r *recorder, l topology.Link) {
	c := w.c
	bytes0 := c.Net.TotalBytes
	t0 := r.begin("flap")
	r.child(kBase, func() { c.RemoveLink(l) })
	_, err1 := c.RunToFixpoint()
	r.child(kBase, func() { c.AddLink(l) })
	_, err2 := c.RunToFixpoint()
	r.op(r.end(t0), false, true)
	w.acc[cUpdates]++
	w.acc[cUpdateWire] += c.Net.TotalBytes - bytes0
	if err := errors.Join(err1, err2); err != nil {
		r.fail(fmt.Sprintf("flap of link %d-%d: %v", l.U, l.V, err))
	}
	r.verify(func() error { return w.full.checkMinCost(tupleRows(c, "bestPathCost")) })
}

func (w *queryFlap) counters() counters { return clusterCounters(w.c).add(w.acc) }

func (w *queryFlap) storeRows() [3]int { return clusterStoreRows(w.c) }
