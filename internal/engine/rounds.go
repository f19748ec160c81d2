package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bdd"
	"repro/internal/provenance"
	"repro/internal/types"
)

// This file is the engine's RUNTIME layer: the batched round executor every
// node evaluates through, whatever its worker shard count. Each round has
// three phases:
//
//  1. APPLY (parallel over shards). Every shard drains its own ring of
//     deltas, mutating only state it owns: relation entries, index
//     postings, prov rows in its store partition, aggregate groups routed
//     to it. Firing is deferred — the shard records the round's touched
//     entries (markTouched) and incoming event deltas.
//  2. FIRE (parallel over shards). State is frozen; shards evaluate rule
//     plans for each touched entry's net change — a visibility transition,
//     or in value mode a payload change of a tuple visible throughout —
//     probing every shard's indexes read-only under the batched semi-naïve
//     old/new discipline (exec.go). Derivations are buffered: local head
//     deltas, aggregate updates for the groups' owner shards, outbound
//     messages, deferred ruleExec rows.
//  3. MERGE (parallel over destinations). Fire-phase buffers are bucketed
//     by destination shard at emit time, so the barrier commits
//     per-destination: one worker per shard d runs d's deferred index
//     removals and tombstone sweeps, replays every source's ruleExec ops
//     homed in partition d, and drains every source's d-destined deltas
//     and aggregate updates into d's next-round rings — always visiting
//     sources in shard-index order, so each destination sees exactly the
//     sequence an inline, shard-ordered barrier produces. Destinations own
//     disjoint state (their relations, store partition, rings), so the
//     workers cannot race; the transport flush and deferred provenance-
//     change notifications stay serial, in shard order, after the workers
//     join.
//
// Rounds repeat until no shard has pending work. For a fixed shard count
// the execution is fully deterministic; across shard counts the fixpoint
// state (relations, provenance rows, counters of net derivations) is
// identical, while transient aggregate outputs may be elided by batching
// (see ARCHITECTURE.md "Round executor").
//
// All three phases run inline, in shard order, on a single-shard node, when
// the host has no parallelism (GOMAXPROCS=1), or when the round's occupancy
// is below minFanOutWork — the adaptive gate: parallel and inline execution
// are bit-identical by construction, so thin rounds skip the goroutine
// handoff.

// fireItem is one deferred firing: either an event delta (fires with its
// own sign and payload) or a stored entry touched this round (fires with its
// net change, or not at all when the batch nets to zero).
type fireItem struct {
	tuple types.Tuple
	occs  []occurrence
	ent   *entry    // nil for events
	rel   *Relation // owning relation, for deferred index maintenance
	// payload is an event's provenance payload, or a stored entry's
	// payload at its first touch of the round (value mode).
	payload bdd.Ref
	sign    int8 // events only; stored entries resolve at fire time
	isEvent bool
}

// aggItem is one aggregate-group update shipped to the group's owner shard.
// groupVals and carried alias the source shard's round arena (roundArgs),
// valid until that shard's next fire phase; the group copies what it keeps.
type aggItem struct {
	rule      *CompiledRule
	groupVals []types.Value
	sortVal   types.Value
	carried   []types.Value
	input     types.Tuple
	sign      int8
	payload   bdd.Ref // Update items: the input's new value-mode payload
}

// outMsg is one buffered cross-node message.
type outMsg struct {
	to types.NodeID
	m  *Message
}

// reOp is one deferred ruleExec-row change. Inserts and deletes of the same
// RID can fire on different shards (whichever owned the triggering delta),
// so the ops replay at the merge barrier into the RID's home partition —
// keeping every add/del pair in one map. vid offsets slice the shard's
// reVIDs arena.
type reOp struct {
	ridh   types.IDHandle
	rid    types.ID
	label  string
	sign   int8
	vidOff int
	vidLen int
}

// roundShard is the per-shard slice of round-runtime state. outLocal,
// outAgg and reOps are bucketed by destination shard (respectively the head
// tuple's owner, the aggregate group's owner, and the RID's home partition)
// at emit time, so the merge barrier can commit each destination's stream
// on its own worker without re-routing.
type roundShard struct {
	fires    []fireItem
	outLocal [][]localDelta
	outAgg   [][]aggItem
	outMsgs  []outMsg
	aggIn    []aggItem
	reOps    [][]reOp
	reVIDs   []types.ID
	keyBufs  [][]byte // per-plan-step probe keys (exec.go join probing)
	// aggVals backs the group and carried values of this shard's outbound
	// aggItems. It is reset at the start of the shard's fire phase: by then
	// every item of the previous round has been applied by its owner.
	aggVals []types.Value
}

// initRounds sizes the per-shard round state once the shard set is final.
//
//exspan:merge-phase
func (n *Node) initRounds() {
	maxSteps := 0
	for _, cr := range n.Prog.Rules {
		for _, pl := range cr.plans {
			if len(pl.steps) > maxSteps {
				maxSteps = len(pl.steps)
			}
		}
	}
	for _, sh := range n.shards {
		sh.rs.keyBufs = make([][]byte, maxSteps)
		sh.rs.outLocal = make([][]localDelta, len(n.shards))
		sh.rs.outAgg = make([][]aggItem, len(n.shards))
		sh.rs.reOps = make([][]reOp, len(n.shards))
	}
}

// markTouched records a stored entry's first touch of the round: its
// start-of-round visibility (against which the net transition and the
// old-state probe admissions are decided) and a fire-list slot.
//
//exspan:hotpath
func (sh *shard) markTouched(rel *Relation, e *entry, occs []occurrence) {
	if e.touchRound == sh.n.curRound {
		return
	}
	e.touchRound = sh.n.curRound
	e.startVis = e.visible
	sh.rs.fires = append(sh.rs.fires, fireItem{tuple: e.tuple, occs: occs, ent: e, rel: rel, payload: e.payload})
}

// applyPhase drains the shard's delta ring and applies aggregate updates
// routed to this shard's groups. Only owner-local state is mutated.
//
//exspan:hotpath
func (sh *shard) applyPhase() {
	for sh.qhead < len(sh.queue) && sh.err == nil {
		sh.process(sh.popDelta())
	}
	if sh.qhead == len(sh.queue) {
		sh.queue = sh.queue[:0]
		sh.qhead = 0
	}
	for i := range sh.rs.aggIn {
		if sh.err != nil {
			break
		}
		sh.applyAggItem(&sh.rs.aggIn[i])
	}
	clearAggItems(sh.rs.aggIn)
	sh.rs.aggIn = sh.rs.aggIn[:0]
}

// firePhase evaluates the deferred firings against the frozen post-apply
// state. Stored entries fire once with their net change: Insert or Delete
// for a visibility transition, Update (value mode) for a payload change of
// a tuple visible at both ends of the round, nothing when the batch nets to
// zero.
//
//exspan:hotpath
func (sh *shard) firePhase() {
	sh.rs.aggVals = sh.rs.aggVals[:0]
	for i := range sh.rs.fires {
		if sh.err != nil {
			return
		}
		it := &sh.rs.fires[i]
		sign, payload := it.sign, it.payload
		ent := it.ent
		if !it.isEvent {
			switch {
			case ent.startVis != ent.visible && ent.visible:
				sign = Insert
			case ent.startVis != ent.visible:
				sign = Delete
			case ent.visible && ent.payload != it.payload:
				sign = Update
			default:
				continue // net zero: transient within the round
			}
			payload = ent.payload
		}
		for _, occ := range it.occs {
			if occ.rule.agg != nil {
				sh.shipAggUpdate(occ.rule, it.tuple, sign, payload)
			} else {
				sh.firePlan(occ.rule, occ.pos, it.tuple, sign, ent, payload)
			}
		}
	}
}

// shipAggUpdate evaluates an aggregate rule's body for a net delta and
// ships the group update to the group's owner shard (applied in its next
// apply phase): aggregate groups are partitioned by group-key hash, so one
// shard owns each group's whole input multiset. Group values and carried
// values are copied out of scratch into the shard's round arena.
//
//exspan:hotpath
func (sh *shard) shipAggUpdate(rule *CompiledRule, t types.Tuple, sign int8, payload bdd.Ref) {
	env, ok := sh.evalAggBody(rule, t)
	if !ok {
		return
	}
	spec := rule.agg
	groupVals := sh.groupBuf[:len(spec.groupCode)]
	for i, code := range spec.groupCode {
		v, err := code(env)
		if err != nil {
			//exspanlint:alloc-ok error path: evaluation aborts on the first failure
			sh.fail(fmt.Errorf("rule %s group: %w", rule.Label, err))
			return
		}
		groupVals[i] = v
	}
	sortVal, carried := sh.evalAggVals(rule, env)
	off := len(sh.rs.aggVals)
	sh.rs.aggVals = append(sh.rs.aggVals, groupVals...)
	sh.rs.aggVals = append(sh.rs.aggVals, carried...)
	gv := sh.rs.aggVals[off : off+len(groupVals) : off+len(groupVals)]
	cv := sh.rs.aggVals[off+len(groupVals) : len(sh.rs.aggVals) : len(sh.rs.aggVals)]
	dst := int(types.HashValues(gv) % uint64(len(sh.n.shards)))
	sh.rs.outAgg[dst] = append(sh.rs.outAgg[dst], aggItem{
		rule: rule, groupVals: gv, sortVal: sortVal, carried: cv, input: t, sign: sign, payload: payload,
	})
}

// applyAggItem applies one routed aggregate update to this shard's group
// state, emitting any net output change as local head deltas for the next
// round.
func (sh *shard) applyAggItem(it *aggItem) {
	rule := it.rule
	groups := sh.aggByRule[rule.idx]
	if groups == nil {
		groups = map[string]*aggGroup{}
		sh.aggByRule[rule.idx] = groups
	}
	sh.keyBuf = appendValuesKey(sh.keyBuf[:0], it.groupVals)
	g := groups[string(sh.keyBuf)]
	if it.sign == Update {
		// Value-mode payload update: if the updated input is the current
		// winner, the head's payload follows it.
		if g != nil && g.hasOut && g.curWinner != nil && g.curWinner.input.Equal(it.input) {
			out := g.curOut
			out.Pred = rule.HeadPred
			sh.vidBuf[0], sh.hashBuf = it.input.VIDBuf(sh.hashBuf)
			var rid types.ID
			rid, sh.ridBuf = types.RuleExecIDBuf(rule.Label, sh.n.ID, sh.vidBuf[:1], sh.ridBuf)
			sh.route(out, sh.n.ID, Update, rid, it.payload)
		}
		return
	}
	if g == nil {
		g = sh.allocAggGroup()
		groups[string(sh.keyBuf)] = g
	}
	for _, em := range g.update(sh, rule, it.groupVals, it.sortVal, it.carried, it.input, it.sign) {
		out := em.tuple
		out.Pred = rule.HeadPred
		sh.emitAggChange(rule, out, em, it.input)
	}
}

// ruleExecRow applies one ruleExec-partition row change in the RID's home
// partition: inserts and deletes of the same RID may fire on different
// shards (whichever shard owned the triggering delta), so every op lands in
// one partition, keeping each add/del pair in one map. The firing shard
// owns its own partition, which no other shard writes before the merge
// barrier, so ops homed there apply in place; the rest are buffered for the
// barrier, bucketed by home partition.
//
//exspan:hotpath
func (sh *shard) ruleExecRow(ridh types.IDHandle, rid types.ID, label string, inputVIDs []types.ID, sign int8) {
	dst := sh.n.ridHomeIdx(rid)
	if dst == sh.idx {
		applyRuleExecOp(sh.store, ridh, rid, label, inputVIDs, sign)
		return
	}
	off, k := len(sh.rs.reVIDs), 0
	if sign == Insert { // deletes never materialize a new row; skip the copy
		sh.rs.reVIDs = append(sh.rs.reVIDs, inputVIDs...)
		k = len(inputVIDs)
	}
	sh.rs.reOps[dst] = append(sh.rs.reOps[dst], reOp{
		ridh: ridh, rid: rid, label: label, sign: sign, vidOff: off, vidLen: k,
	})
}

// ridHomeIdx maps an RID to the partition index its ruleExec row lives in:
// a content-derived hash so add/del pairs always meet, whatever shards they
// fired on.
func (n *Node) ridHomeIdx(rid types.ID) int {
	return int(binary.BigEndian.Uint64(rid[:8]) % uint64(len(n.shards)))
}

// replayRuleExecOpsTo applies this shard's deferred ruleExec ops homed in
// partition d (merge barrier; called only by destination d's merge worker).
// The shared reVIDs arena is read-only here and truncated by the serial
// merge epilogue once every destination has replayed.
func (sh *shard) replayRuleExecOpsTo(d int) {
	part := sh.n.Store.Part(d)
	ops := sh.rs.reOps[d]
	for i := range ops {
		op := &ops[i]
		applyRuleExecOp(part, op.ridh, op.rid, op.label, sh.rs.reVIDs[op.vidOff:op.vidOff+op.vidLen], op.sign)
		ops[i] = reOp{}
	}
	sh.rs.reOps[d] = ops[:0]
}

// applyRuleExecOp applies one ruleExec-row change to a store partition,
// through the handle-keyed API when the RID memo supplied a handle.
func applyRuleExecOp(part *provenance.Partition, ridh types.IDHandle, rid types.ID, label string, inputVIDs []types.ID, sign int8) {
	switch {
	case sign == Insert && ridh != 0:
		part.AddRuleExecH(ridh, rid, label, inputVIDs)
	case sign == Insert:
		part.AddRuleExec(rid, label, inputVIDs)
	case ridh != 0:
		part.DelRuleExecH(ridh)
	default:
		part.DelRuleExec(rid)
	}
}

// mergeShard commits destination d's slice of the merge barrier: shard d's
// deferred index removals and tombstone sweeps, the replay of every source
// shard's ruleExec ops homed in partition d, and the drain of every
// source's d-destined local deltas and aggregate updates into d's
// next-round rings. Sources are visited in shard-index order, so the
// per-destination sequence is exactly the subsequence an inline barrier
// feeds this destination — bit-identity across worker schedules is
// by construction. Every structure touched is owned by destination d
// (its relations and entries, its store partition, its rings) or is a
// d-indexed bucket of a source's emit buffers, so concurrent mergeShard
// calls for different destinations never share mutable state.
//
//exspan:merge-phase
func (n *Node) mergeShard(d int) {
	sh := n.shards[d]
	// Deferred index maintenance: entries whose net transition was to
	// invisible leave the indexes now that no probe can be in flight.
	for i := range sh.rs.fires {
		it := &sh.rs.fires[i]
		if it.ent != nil && !it.ent.visible && it.ent.indexed {
			it.rel.unindex(it.ent)
		}
		sh.rs.fires[i] = fireItem{}
	}
	sh.rs.fires = sh.rs.fires[:0]
	for _, rel := range sh.tablesByID {
		rel.maybeSweepRound()
	}
	for _, rel := range sh.extraTables {
		rel.maybeSweepRound()
	}
	for _, src := range n.shards {
		src.replayRuleExecOpsTo(d)
	}
	for _, src := range n.shards {
		bucket := src.rs.outLocal[d]
		for i := range bucket {
			sh.enqueue(bucket[i])
			bucket[i] = localDelta{}
		}
		src.rs.outLocal[d] = bucket[:0]
		ab := src.rs.outAgg[d]
		sh.rs.aggIn = append(sh.rs.aggIn, ab...)
		clearAggItems(ab)
		src.rs.outAgg[d] = ab[:0]
	}
}

// flushRound closes a round after every destination has merged: the
// transport flush runs serially in shard-index order, so the wire sees one
// deterministic sequence regardless of goroutine scheduling.
//
//exspan:merge-phase
func (n *Node) flushRound() {
	for _, sh := range n.shards {
		for i := range sh.rs.outMsgs {
			om := sh.rs.outMsgs[i]
			sh.rs.outMsgs[i] = outMsg{}
			n.Transport.Send(n.ID, om.to, om.m)
		}
		sh.rs.outMsgs = sh.rs.outMsgs[:0]
		sh.rs.reVIDs = sh.rs.reVIDs[:0]
	}
	n.syncErr()
}

func clearAggItems(items []aggItem) {
	for i := range items {
		items[i] = aggItem{}
	}
}

// anyPending reports whether any shard has queued deltas or aggregate
// updates.
func (n *Node) anyPending() bool {
	for _, sh := range n.shards {
		if sh.pending() {
			return true
		}
	}
	return false
}

// minFanOutWork is the adaptive gate's occupancy threshold: rounds opening
// with fewer pending deltas and aggregate updates than this run all three
// phases inline — the goroutine handoff would cost more than the round's
// work. Safe at any value because inline and fanned-out execution are
// bit-identical by construction.
const minFanOutWork = 64

// roundWork counts the deltas and aggregate updates pending at a round
// boundary — the occupancy the adaptive gate compares against
// minFanOutWork.
//
//exspan:merge-phase
func (n *Node) roundWork() int {
	w := 0
	for _, sh := range n.shards {
		w += len(sh.queue) - sh.qhead + len(sh.rs.aggIn)
	}
	return w
}

// runRounds executes batched rounds until the node is locally quiescent.
// Re-entrant calls (a synchronous transport delivering a message back to
// this node mid-merge) just deposit and return — the outer loop picks the
// work up next round.
//
//exspan:merge-phase
func (n *Node) runRounds() {
	if n.inRounds {
		return
	}
	n.inRounds = true
	defer func() { n.inRounds = false }()
	// Phase results are goroutine-schedule-independent by construction, so
	// a lone shard or a single-CPU host runs every round inline in shard
	// order; parallel hosts make the same inline collapse per round when
	// occupancy is below minFanOutWork.
	parallel := len(n.shards) > 1 && runtime.GOMAXPROCS(0) > 1
	for n.Err == nil && n.anyPending() {
		n.curRound++
		n.Store.DeferChanges()
		if parallel && n.roundWork() >= minFanOutWork {
			n.fanOutRound()
		} else {
			for _, sh := range n.shards {
				if sh.pending() {
					sh.applyPhase()
				}
			}
			for _, sh := range n.shards {
				if len(sh.rs.fires) > 0 {
					sh.firePhase()
				}
			}
			for d := range n.shards {
				n.mergeShard(d)
			}
		}
		n.flushRound()
		n.Store.FlushDeferred()
	}
}

// fanOutRound runs one round's apply, fire and merge phases on one
// goroutine per shard, with a barrier after each phase.
//
//exspan:merge-phase
func (n *Node) fanOutRound() {
	var wg sync.WaitGroup
	for _, sh := range n.shards {
		if sh.pending() {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.applyPhase()
			}(sh)
		}
	}
	wg.Wait()
	for _, sh := range n.shards {
		if len(sh.rs.fires) > 0 {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.firePhase()
			}(sh)
		}
	}
	wg.Wait()
	wg.Add(len(n.shards))
	for d := range n.shards {
		go func(d int) {
			defer wg.Done()
			n.mergeShard(d)
		}(d)
	}
	wg.Wait()
}
