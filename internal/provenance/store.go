// Package provenance implements the paper's distributed provenance data
// model (§4.1): an acyclic graph of tuple vertices and rule-execution
// vertices stored in two horizontally partitioned relations,
//
//	prov(@Loc, VID, RID, RLoc)      — tuple VID at Loc is derivable from
//	                                  rule execution RID residing at RLoc
//	ruleExec(@RLoc, RID, R, VIDList) — rule R executed at RLoc over the
//	                                  input tuples in VIDList
//
// Each node holds the partition of prov for its local tuples and the
// partition of ruleExec for rules executed locally. The store additionally
// keeps the VID→tuple mapping (the paper's "systems table that maps VIDs to
// tuples") and reverse dataflow edges used by cache invalidation (§6.1).
//
// A node's Store is itself split into one Partition per engine worker shard
// (see partition.go): during the sharded runtime's parallel phases each
// shard writes only its own partition, so the store needs no locks. The
// Store type here is the single-writer facade the query processor and tools
// use — its methods behave exactly like the pre-sharding store, fanning out
// across partitions where a row could live in any of them. With one
// partition (the default) every method is a direct delegation.
package provenance

import (
	"sort"

	"repro/internal/types"
)

// Store is one node's view of its provenance graph: a facade over one or
// more single-writer partitions.
type Store struct {
	Node types.NodeID

	// OnProvChange, when set, fires after the derivation set of a local
	// VID changes (entry added or removed). The query cache uses it for
	// invalidation. While DeferChanges is in effect, notifications are
	// buffered per partition and replayed by FlushDeferred.
	OnProvChange func(vid types.ID)

	parts     []*Partition
	deferring bool
}

// NewStore creates a store with a single partition — the layout every
// single-threaded node uses.
func NewStore(node types.NodeID) *Store { return NewStoreSharded(node, 1) }

// NewStoreSharded creates a store with n partitions, one per engine worker
// shard.
func NewStoreSharded(node types.NodeID, n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{Node: node}
	s.parts = make([]*Partition, n)
	for i := range s.parts {
		s.parts[i] = newPartition(s)
	}
	return s
}

// Part returns partition i. The engine worker shards write through these
// directly; everything else goes through the facade methods.
func (s *Store) Part(i int) *Partition { return s.parts[i] }

// DeferChanges buffers OnProvChange notifications until FlushDeferred. The
// engine brackets its parallel phases with this pair so the (single-threaded)
// query-cache hook never runs concurrently.
func (s *Store) DeferChanges() { s.deferring = true }

// FlushDeferred replays buffered change notifications in partition order and
// resumes synchronous delivery.
func (s *Store) FlushDeferred() {
	s.deferring = false
	if s.OnProvChange == nil {
		for _, p := range s.parts {
			p.pending = p.pending[:0]
		}
		return
	}
	for _, p := range s.parts {
		for _, vid := range p.pending {
			s.OnProvChange(vid)
		}
		p.pending = p.pending[:0]
	}
}

// partForVID returns the partition holding rows of vid (its prov rows or its
// VID→tuple mapping), or nil. Reads and parent-edge writes route through it.
func (s *Store) partForVID(vidh types.IDHandle) *Partition {
	for _, p := range s.parts {
		if _, ok := p.prov[vidh]; ok {
			return p
		}
		if _, ok := p.tuples[vidh]; ok {
			return p
		}
		if _, ok := p.parents[vidh]; ok {
			return p
		}
	}
	return nil
}

// RegisterTuple records the VID→tuple mapping for a local tuple.
func (s *Store) RegisterTuple(t types.Tuple) types.ID {
	return s.parts[0].RegisterTuple(t)
}

// RegisterTupleVID records the VID→tuple mapping for a tuple whose VID the
// caller has already computed.
func (s *Store) RegisterTupleVID(vid types.ID, t types.Tuple) {
	s.parts[0].RegisterTupleVID(vid, t)
}

// RegisterTupleVIDH is RegisterTupleVID for a caller that holds the interned
// handle.
func (s *Store) RegisterTupleVIDH(vidh types.IDHandle, t types.Tuple) {
	s.parts[0].RegisterTupleVIDH(vidh, t)
}

// TupleOf resolves a local VID to its tuple.
func (s *Store) TupleOf(vid types.ID) (types.Tuple, bool) {
	for _, p := range s.parts {
		if t, ok := p.TupleOf(vid); ok {
			return t, true
		}
	}
	return types.Tuple{}, false
}

// AddProv inserts (or increments) a prov entry.
func (s *Store) AddProv(vid, rid types.ID, rloc types.NodeID) {
	s.AddProvH(types.InternID(vid), rid, rloc)
}

// AddProvH is AddProv keyed by the caller's interned VID handle. Facade
// writes land in the partition already holding the VID's rows (partition 0
// for first sight); sharded engine writers bypass the facade via Part.
func (s *Store) AddProvH(vidh types.IDHandle, rid types.ID, rloc types.NodeID) {
	p := s.partForVID(vidh)
	if p == nil {
		p = s.parts[0]
	}
	p.AddProvH(vidh, rid, rloc)
}

// DelProv decrements (and possibly removes) a prov entry; it reports
// whether the entry existed.
func (s *Store) DelProv(vid, rid types.ID, rloc types.NodeID) bool {
	h, ok := types.LookupID(vid)
	if !ok {
		return false
	}
	return s.DelProvH(h, rid, rloc)
}

// DelProvH is DelProv keyed by the caller's interned VID handle.
func (s *Store) DelProvH(vidh types.IDHandle, rid types.ID, rloc types.NodeID) bool {
	for _, p := range s.parts {
		if p.DelProvH(vidh, rid, rloc) {
			return true
		}
	}
	return false
}

// Derivations returns the visible prov entries for a VID. Callers must not
// mutate the returned slice.
func (s *Store) Derivations(vid types.ID) []ProvEntry {
	for _, p := range s.parts {
		if d := p.Derivations(vid); d != nil {
			return d
		}
	}
	return nil
}

// AddRuleExec inserts (or increments) a ruleExec entry. vidList may be
// caller scratch; it is copied when a new entry is created.
func (s *Store) AddRuleExec(rid types.ID, rule string, vidList []types.ID) {
	s.AddRuleExecH(types.InternID(rid), rid, rule, vidList)
}

// AddRuleExecH is AddRuleExec keyed by the caller's interned RID handle.
func (s *Store) AddRuleExecH(ridh types.IDHandle, rid types.ID, rule string, vidList []types.ID) {
	for _, p := range s.parts {
		if _, ok := p.ruleExec[ridh]; ok {
			p.AddRuleExecH(ridh, rid, rule, vidList)
			return
		}
	}
	s.parts[0].AddRuleExecH(ridh, rid, rule, vidList)
}

// DelRuleExec decrements (and possibly removes) a ruleExec entry.
func (s *Store) DelRuleExec(rid types.ID) bool {
	h, ok := types.LookupID(rid)
	if !ok {
		return false
	}
	return s.DelRuleExecH(h)
}

// DelRuleExecH is DelRuleExec keyed by the caller's interned RID handle.
func (s *Store) DelRuleExecH(ridh types.IDHandle) bool {
	for _, p := range s.parts {
		if p.DelRuleExecH(ridh) {
			return true
		}
	}
	return false
}

// RuleExecOf resolves a local RID.
func (s *Store) RuleExecOf(rid types.ID) (RuleExecEntry, bool) {
	for _, p := range s.parts {
		if e, ok := p.RuleExecOf(rid); ok {
			return e, true
		}
	}
	return RuleExecEntry{}, false
}

// ForEachRuleExec invokes fn for every visible ruleExec entry (iteration
// order is unspecified).
func (s *Store) ForEachRuleExec(fn func(RuleExecEntry)) {
	for _, p := range s.parts {
		p.ForEachRuleExec(fn)
	}
}

// AddParent records that local tuple vid was consumed by rule execution rid
// deriving headVID at headLoc. The edge lands in the partition holding the
// VID's rows, so invalidation finds it alongside them.
func (s *Store) AddParent(vid, rid, headVID types.ID, headLoc types.NodeID) {
	p := s.partForVID(types.InternID(vid))
	if p == nil {
		p = s.parts[0]
	}
	p.AddParent(vid, rid, headVID, headLoc)
}

// DelParent removes one reverse edge occurrence.
func (s *Store) DelParent(vid, rid, headVID types.ID, headLoc types.NodeID) {
	for _, p := range s.parts {
		p.DelParent(vid, rid, headVID, headLoc)
	}
}

// Parents returns the reverse dataflow edges of a local VID. Callers must
// not mutate the returned slice.
func (s *Store) Parents(vid types.ID) []Parent {
	for _, p := range s.parts {
		if list := p.Parents(vid); list != nil {
			return list
		}
	}
	return nil
}

// DropParents removes every reverse edge of a VID (an invalidation wave
// consumed them).
func (s *Store) DropParents(vid types.ID) {
	for _, p := range s.parts {
		p.DropParents(vid)
	}
}

// NumProv reports the number of visible prov entries across partitions.
func (s *Store) NumProv() int {
	n := 0
	for _, p := range s.parts {
		n += p.NumProv()
	}
	return n
}

// NumRuleExec reports the number of visible ruleExec entries.
func (s *Store) NumRuleExec() int {
	n := 0
	for _, p := range s.parts {
		n += p.NumRuleExec()
	}
	return n
}

// NumParents reports the number of reverse dataflow edges.
func (s *Store) NumParents() int {
	n := 0
	for _, p := range s.parts {
		n += p.NumParents()
	}
	return n
}

// ProvRows renders the store's prov relation as sorted printable rows.
func (s *Store) ProvRows() []string {
	var rows []string
	for _, p := range s.parts {
		rows = append(rows, p.ProvRows()...)
	}
	if len(s.parts) > 1 {
		sort.Strings(rows)
	}
	return rows
}

// RuleExecRows renders the store's ruleExec relation as sorted rows.
func (s *Store) RuleExecRows() []string {
	var rows []string
	for _, p := range s.parts {
		rows = append(rows, p.RuleExecRows()...)
	}
	if len(s.parts) > 1 {
		sort.Strings(rows)
	}
	return rows
}
