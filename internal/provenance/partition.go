// This file implements one partition of a node's provenance store: the row
// maps, their arenas, and every read/write method. The Store facade
// (store.go) owns one Partition per engine worker shard so concurrent shards
// mutate disjoint map sets; with a single partition the layout and behavior
// are exactly those of the pre-sharding store.
//
// Rows are stored by value inside their per-VID slices: the store sits on
// the engine's delta hot path, and per-row pointer boxes more than doubled
// the evaluator's allocation count in fixpoint profiles.
//
// Maps are keyed by interned ID handles (types.IDHandle), not by the
// 20-byte digests themselves: map operations hash and compare 4 bytes, and
// the (vid, rid) reverse-edge index keys 8 bytes instead of 40. The engine
// caches handles on its relation entries and calls the *H methods directly;
// the ID-based methods intern (write paths) or look up without interning
// (read paths, so probing an unknown VID cannot grow the intern table) and
// delegate. Row values keep full IDs — handles are process-local and never
// travel in query replies or on the wire.
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// ProvEntry is one row of the prov relation: a direct derivation of the
// tuple identified by VID via the rule execution RID at RLoc. Base tuples
// carry the null RID. Count tracks duplicate derivations under incremental
// maintenance; an entry is visible while Count > 0.
type ProvEntry struct {
	VID   types.ID
	RID   types.ID
	RLoc  types.NodeID
	Count int
}

// RuleExecEntry is one row of the ruleExec relation: the metadata of a rule
// execution instance.
type RuleExecEntry struct {
	RID     types.ID
	Rule    string
	VIDList []types.ID
	Count   int
}

// Parent is a reverse dataflow edge: the local tuple was consumed by rule
// execution RID (local, since rule bodies are localized), deriving the head
// tuple HeadVID stored at HeadLoc.
type Parent struct {
	RID     types.ID
	HeadVID types.ID
	HeadLoc types.NodeID
	Count   int
}

// parentKey identifies one reverse dataflow edge for O(1) add/remove. The
// RID alone determines the derived head (an RID hashes the rule, its
// location and its exact inputs), so (vid, rid) is unique per edge. Hub
// tuples (e.g. a link consumed by every route derivation) accumulate long
// parent lists, and the linear scans previously done by AddParent dominated
// fixpoint profiles. Interned handles shrink the key from 40 bytes to 8.
type parentKey struct {
	vidh types.IDHandle
	ridh types.IDHandle
}

// Partition is one horizontal slice of a node's provenance store. Under the
// sharded engine runtime each worker shard owns one partition and is the only
// writer to it during parallel phases; the Store facade fans reads out across
// partitions. A single-partition store is exactly the pre-sharding layout.
//
// Reverse dataflow edges (parents) are installed lazily by the query
// processor when it caches a traversal level — §6.1 invalidation is their
// only consumer, so their maintenance cost is paid per cached query, never
// per derivation on the engine's hot path.
type Partition struct {
	Node  types.NodeID
	owner *Store // change notifications route through the facade

	prov      map[types.IDHandle][]ProvEntry
	ruleExec  map[types.IDHandle]RuleExecEntry
	tuples    map[types.IDHandle]types.Tuple
	parents   map[types.IDHandle][]Parent
	parentIdx map[parentKey]int // position inside parents[vidh]

	// Chunked arenas for the first element of per-VID row slices and for
	// ruleExec input lists. Most VIDs have exactly one prov row and one
	// parent edge, so the per-VID "first append" allocations dominated the
	// store's profile; carving capacity-1 slices from a chunk amortizes
	// them to ~1/chunk. Longer lists spill to regular append growth.
	provArena   []ProvEntry
	parentArena []Parent
	vidArena    []types.ID

	// pending buffers change notifications while the owning Store defers
	// them (parallel engine phases); FlushDeferred replays and clears it.
	pending []types.ID
}

func newPartition(owner *Store) *Partition {
	return &Partition{
		Node:      owner.Node,
		owner:     owner,
		prov:      make(map[types.IDHandle][]ProvEntry),
		ruleExec:  make(map[types.IDHandle]RuleExecEntry),
		tuples:    make(map[types.IDHandle]types.Tuple),
		parents:   make(map[types.IDHandle][]Parent),
		parentIdx: make(map[parentKey]int),
	}
}

const storeArenaChunk = 256

// minArenaChunk is the first chunk each arena carves; later chunks double
// up to storeArenaChunk, so the many partitions that stay small never carve
// a full-size chunk. The engine's arenas grow by the same rule.
const minArenaChunk = 8

// arenaChunk returns the capacity of an arena's next chunk given the
// capacity of the exhausted one: double it, within [minArenaChunk, limit].
func arenaChunk(prev, limit int) int {
	return min(max(2*prev, minArenaChunk), limit)
}

func (s *Partition) allocProv1() []ProvEntry {
	if len(s.provArena) == cap(s.provArena) {
		s.provArena = make([]ProvEntry, 0, arenaChunk(cap(s.provArena), storeArenaChunk))
	}
	n := len(s.provArena)
	s.provArena = s.provArena[:n+1]
	return s.provArena[n : n : n+1]
}

func (s *Partition) allocParent1() []Parent {
	if len(s.parentArena) == cap(s.parentArena) {
		s.parentArena = make([]Parent, 0, arenaChunk(cap(s.parentArena), storeArenaChunk))
	}
	n := len(s.parentArena)
	s.parentArena = s.parentArena[:n+1]
	return s.parentArena[n : n : n+1]
}

// allocVIDs carves a copy of vidList from the chunked ID arena.
func (s *Partition) allocVIDs(vidList []types.ID) []types.ID {
	k := len(vidList)
	if k == 0 {
		return nil
	}
	if len(s.vidArena)+k > cap(s.vidArena) {
		s.vidArena = make([]types.ID, 0, max(arenaChunk(cap(s.vidArena), storeArenaChunk), k))
	}
	n := len(s.vidArena)
	s.vidArena = s.vidArena[:n+k]
	cp := s.vidArena[n : n+k : n+k]
	copy(cp, vidList)
	return cp
}

// RegisterTuple records the VID→tuple mapping for a local tuple.
func (s *Partition) RegisterTuple(t types.Tuple) types.ID {
	vid := t.VID()
	s.RegisterTupleVIDH(types.InternID(vid), t)
	return vid
}

// RegisterTupleVID records the VID→tuple mapping for a tuple whose VID the
// caller has already computed.
func (s *Partition) RegisterTupleVID(vid types.ID, t types.Tuple) {
	s.RegisterTupleVIDH(types.InternID(vid), t)
}

// RegisterTupleVIDH is RegisterTupleVID for a caller that holds the interned
// handle (the engine caches one per relation entry), avoiding the 20-byte
// dedup-map lookup on the hot path.
func (s *Partition) RegisterTupleVIDH(vidh types.IDHandle, t types.Tuple) {
	if _, ok := s.tuples[vidh]; !ok {
		s.tuples[vidh] = t
	}
}

// resolveTuple resolves a VID to its tuple through the owning store (which
// searches every partition), falling back to this partition alone.
func (s *Partition) resolveTuple(vid types.ID) (types.Tuple, bool) {
	if s.owner != nil {
		return s.owner.TupleOf(vid)
	}
	return s.TupleOf(vid)
}

// TupleOf resolves a local VID to its tuple.
func (s *Partition) TupleOf(vid types.ID) (types.Tuple, bool) {
	h, ok := types.LookupID(vid)
	if !ok {
		return types.Tuple{}, false
	}
	t, ok := s.tuples[h]
	return t, ok
}

// AddProv inserts (or increments) a prov entry.
func (s *Partition) AddProv(vid, rid types.ID, rloc types.NodeID) {
	s.AddProvH(types.InternID(vid), rid, rloc)
}

// AddProvH is AddProv keyed by the caller's interned VID handle.
func (s *Partition) AddProvH(vidh types.IDHandle, rid types.ID, rloc types.NodeID) {
	entries := s.prov[vidh]
	for i := range entries {
		if entries[i].RID == rid && entries[i].RLoc == rloc {
			entries[i].Count++
			s.changed(entries[i].VID)
			return
		}
	}
	if entries == nil {
		entries = s.allocProv1()
	}
	vid := vidh.ID()
	s.prov[vidh] = append(entries, ProvEntry{VID: vid, RID: rid, RLoc: rloc, Count: 1})
	s.changed(vid)
}

// DelProv decrements (and possibly removes) a prov entry; it reports
// whether the entry existed.
func (s *Partition) DelProv(vid, rid types.ID, rloc types.NodeID) bool {
	h, ok := types.LookupID(vid)
	if !ok {
		return false
	}
	return s.DelProvH(h, rid, rloc)
}

// DelProvH is DelProv keyed by the caller's interned VID handle.
func (s *Partition) DelProvH(vidh types.IDHandle, rid types.ID, rloc types.NodeID) bool {
	entries := s.prov[vidh]
	for i := range entries {
		if entries[i].RID == rid && entries[i].RLoc == rloc {
			vid := entries[i].VID
			entries[i].Count--
			if entries[i].Count <= 0 {
				s.prov[vidh] = append(entries[:i], entries[i+1:]...)
				if len(s.prov[vidh]) == 0 {
					delete(s.prov, vidh)
					delete(s.tuples, vidh)
				}
			}
			s.changed(vid)
			return true
		}
	}
	return false
}

// changed routes a derivation-set change notification through the owning
// facade. While the facade is deferring (a parallel engine phase is running),
// the VID is buffered locally — each partition has exactly one writer, so the
// buffers need no locks — and replayed in partition order by FlushDeferred.
func (s *Partition) changed(vid types.ID) {
	st := s.owner
	if st == nil || st.OnProvChange == nil {
		return
	}
	if st.deferring {
		s.pending = append(s.pending, vid)
		return
	}
	st.OnProvChange(vid)
}

// Derivations returns the visible prov entries for a VID. Callers must not
// mutate the returned slice.
func (s *Partition) Derivations(vid types.ID) []ProvEntry {
	h, ok := types.LookupID(vid)
	if !ok {
		return nil
	}
	return s.prov[h]
}

// AddRuleExec inserts (or increments) a ruleExec entry. vidList may be
// caller scratch; it is copied when a new entry is created.
func (s *Partition) AddRuleExec(rid types.ID, rule string, vidList []types.ID) {
	s.AddRuleExecH(types.InternID(rid), rid, rule, vidList)
}

// AddRuleExecH is AddRuleExec keyed by the caller's interned RID handle (the
// engine's RID cache hands them out).
func (s *Partition) AddRuleExecH(ridh types.IDHandle, rid types.ID, rule string, vidList []types.ID) {
	if e, ok := s.ruleExec[ridh]; ok {
		e.Count++
		s.ruleExec[ridh] = e
		return
	}
	s.ruleExec[ridh] = RuleExecEntry{RID: rid, Rule: rule, VIDList: s.allocVIDs(vidList), Count: 1}
}

// DelRuleExec decrements (and possibly removes) a ruleExec entry.
func (s *Partition) DelRuleExec(rid types.ID) bool {
	h, ok := types.LookupID(rid)
	if !ok {
		return false
	}
	return s.DelRuleExecH(h)
}

// DelRuleExecH is DelRuleExec keyed by the caller's interned RID handle.
func (s *Partition) DelRuleExecH(ridh types.IDHandle) bool {
	e, ok := s.ruleExec[ridh]
	if !ok {
		return false
	}
	e.Count--
	if e.Count <= 0 {
		delete(s.ruleExec, ridh)
	} else {
		s.ruleExec[ridh] = e
	}
	return true
}

// RuleExecOf resolves a local RID.
func (s *Partition) RuleExecOf(rid types.ID) (RuleExecEntry, bool) {
	h, ok := types.LookupID(rid)
	if !ok {
		return RuleExecEntry{}, false
	}
	e, ok := s.ruleExec[h]
	return e, ok
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified).
func (s *Partition) ForEachRuleExec(fn func(RuleExecEntry)) {
	for _, e := range s.ruleExec {
		fn(e)
	}
}

// AddParent records that local tuple vid was consumed by rule execution rid
// deriving headVID at headLoc. This is a write path driven by the query
// processor's cache installation, so both IDs are interned.
func (s *Partition) AddParent(vid, rid, headVID types.ID, headLoc types.NodeID) {
	vidh := types.InternID(vid)
	k := parentKey{vidh: vidh, ridh: types.InternID(rid)}
	list := s.parents[vidh]
	if pos, ok := s.parentIdx[k]; ok {
		list[pos].Count++
		return
	}
	s.parentIdx[k] = len(list)
	if list == nil {
		list = s.allocParent1()
	}
	s.parents[vidh] = append(list, Parent{RID: rid, HeadVID: headVID, HeadLoc: headLoc, Count: 1})
}

// DelParent removes one reverse edge occurrence.
func (s *Partition) DelParent(vid, rid, headVID types.ID, headLoc types.NodeID) {
	vidh, ok := types.LookupID(vid)
	if !ok {
		return
	}
	ridh, ok := types.LookupID(rid)
	if !ok {
		return
	}
	k := parentKey{vidh: vidh, ridh: ridh}
	pos, ok := s.parentIdx[k]
	if !ok {
		return
	}
	list := s.parents[vidh]
	list[pos].Count--
	if list[pos].Count > 0 {
		return
	}
	delete(s.parentIdx, k)
	last := len(list) - 1
	if pos != last {
		list[pos] = list[last]
		movedRidh, _ := types.LookupID(list[pos].RID)
		s.parentIdx[parentKey{vidh: vidh, ridh: movedRidh}] = pos
	}
	list[last] = Parent{}
	list = list[:last]
	if len(list) == 0 {
		delete(s.parents, vidh)
	} else {
		s.parents[vidh] = list
	}
}

// Parents returns the reverse dataflow edges of a local VID. Callers must
// not mutate the returned slice.
func (s *Partition) Parents(vid types.ID) []Parent {
	h, ok := types.LookupID(vid)
	if !ok {
		return nil
	}
	return s.parents[h]
}

// DropParents removes every reverse edge of a VID (an invalidation wave
// consumed them). A slice previously returned by Parents stays readable.
func (s *Partition) DropParents(vid types.ID) {
	vidh, ok := types.LookupID(vid)
	if !ok {
		return
	}
	list, ok := s.parents[vidh]
	if !ok {
		return
	}
	for i := range list {
		if ridh, ok := types.LookupID(list[i].RID); ok {
			delete(s.parentIdx, parentKey{vidh: vidh, ridh: ridh})
		}
	}
	delete(s.parents, vidh)
}

// NumProv reports the number of visible prov entries in the partition.
func (s *Partition) NumProv() int {
	n := 0
	for _, list := range s.prov {
		n += len(list)
	}
	return n
}

// NumRuleExec reports the number of visible ruleExec entries.
func (s *Partition) NumRuleExec() int { return len(s.ruleExec) }

// NumParents reports the number of reverse dataflow edges.
func (s *Partition) NumParents() int { return len(s.parentIdx) }

// ProvRows renders the partition's prov relation as sorted printable rows
// (Loc, tuple, RID short, RLoc) — the format of the paper's Table 1.
func (s *Partition) ProvRows() []string {
	var rows []string
	for vidh, list := range s.prov {
		label := ""
		if t, ok := s.tuples[vidh]; ok {
			label = t.String()
		}
		for i := range list {
			if label == "" {
				label = list[i].VID.Short()
			}
			rid := "null"
			rloc := list[i].RLoc.String()
			if !list[i].RID.IsZero() {
				rid = list[i].RID.Short()
			}
			rows = append(rows, fmt.Sprintf("%s | %s | %s | %s", s.Node, label, rid, rloc))
		}
	}
	sort.Strings(rows)
	return rows
}

// RuleExecRows renders the partition's ruleExec relation as sorted rows
// (RLoc, RID short, rule, VIDList shorts) — the format of Table 2.
func (s *Partition) RuleExecRows() []string {
	var rows []string
	for _, e := range s.ruleExec {
		vids := make([]string, len(e.VIDList))
		for i, v := range e.VIDList {
			vids[i] = v.Short()
			// Input tuples may live in sibling partitions (a sharded rule
			// firing stores its row at the RID's home partition); resolve
			// through the owning facade.
			if t, ok := s.resolveTuple(v); ok {
				vids[i] = t.String()
			}
		}
		rows = append(rows, fmt.Sprintf("%s | %s | %s | (%s)", s.Node, e.RID.Short(), e.Rule, strings.Join(vids, ",")))
	}
	sort.Strings(rows)
	return rows
}
