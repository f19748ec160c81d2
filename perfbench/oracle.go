package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/topology"
	"repro/internal/types"
)

// The oracles below share no code with the engine: they recompute what the
// programs must converge to from the link set alone.

const unreachable = -1

// linkState is a set of undirected links with their all-pairs shortest
// distances.
type linkState struct {
	n    int
	cost map[[2]types.NodeID]int64 // both directions
	adj  [][]topology.Neighbor
	dist [][]int64 // dist[s][d], unreachable if no path
}

// newLinkState builds the state of topo's links minus the removed ones.
func newLinkState(topo *topology.Topology, removed []topology.Link) *linkState {
	gone := map[[2]types.NodeID]bool{}
	for _, l := range removed {
		gone[[2]types.NodeID{l.U, l.V}] = true
	}
	ls := &linkState{n: topo.N, cost: map[[2]types.NodeID]int64{}, adj: make([][]topology.Neighbor, topo.N)}
	for _, l := range topo.Links {
		if gone[[2]types.NodeID{l.U, l.V}] {
			continue
		}
		ls.cost[[2]types.NodeID{l.U, l.V}] = l.Cost
		ls.cost[[2]types.NodeID{l.V, l.U}] = l.Cost
		ls.adj[l.U] = append(ls.adj[l.U], topology.Neighbor{Node: l.V, Cost: l.Cost})
		ls.adj[l.V] = append(ls.adj[l.V], topology.Neighbor{Node: l.U, Cost: l.Cost})
	}
	ls.dist = make([][]int64, topo.N)
	for s := range ls.dist {
		ls.dist[s] = ls.dijkstra(types.NodeID(s))
	}
	return ls
}

// dijkstra is the textbook O(n²) algorithm; the graphs have at most a few
// hundred nodes.
func (ls *linkState) dijkstra(src types.NodeID) []int64 {
	dist := make([]int64, ls.n)
	done := make([]bool, ls.n)
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	for {
		u := -1
		for i := range dist {
			if !done[i] && dist[i] != unreachable && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, nb := range ls.adj[u] {
			if d := dist[u] + nb.Cost; dist[nb.Node] == unreachable || d < dist[nb.Node] {
				dist[nb.Node] = d
			}
		}
	}
}

// minCost is the cost MINCOST must converge to for bestPathCost(@s,d,_):
// the cheapest non-empty walk, which for s == d is a round trip through
// the cheapest neighbour.
func (ls *linkState) minCost(s, d types.NodeID) int64 {
	if s != d {
		return ls.dist[s][d]
	}
	best := int64(unreachable)
	for _, nb := range ls.adj[s] {
		if back := ls.dist[nb.Node][s]; back != unreachable && (best == unreachable || nb.Cost+back < best) {
			best = nb.Cost + back
		}
	}
	return best
}

// checkMinCost compares every node's bestPathCost rows with minCost: no
// row missing, none extra, every cost right.
func (ls *linkState) checkMinCost(rows func(types.NodeID) []types.Tuple) error {
	for s := 0; s < ls.n; s++ {
		src := types.NodeID(s)
		seen := make([]bool, ls.n)
		for _, t := range rows(src) {
			d, cost := t.Args[1].AsNode(), t.Args[2].AsInt()
			if t.Loc() != src || d < 0 || int(d) >= ls.n || seen[d] {
				return fmt.Errorf("bestPathCost: unexpected row %s at node %d", t, s)
			}
			seen[d] = true
			if want := ls.minCost(src, d); cost != want {
				return fmt.Errorf("bestPathCost: %s, oracle cost %d", t, want)
			}
		}
		for d := range seen {
			if !seen[d] && ls.minCost(src, types.NodeID(d)) != unreachable {
				return fmt.Errorf("bestPathCost(@%d,%d,_) missing, oracle cost %d", s, d, ls.minCost(src, types.NodeID(d)))
			}
		}
	}
	return nil
}

// checkPathVector checks every node's bestPath rows: the cost is the
// shortest distance, and the path is a loop-free walk over current links
// from the node to the destination with exactly that cost. Every reachable
// destination other than the node itself has one row.
func (ls *linkState) checkPathVector(rows func(types.NodeID) []types.Tuple) error {
	for s := 0; s < ls.n; s++ {
		src := types.NodeID(s)
		seen := make([]bool, ls.n)
		for _, t := range rows(src) {
			d, cost, path := t.Args[1].AsNode(), t.Args[2].AsInt(), t.Args[3].AsList()
			if t.Loc() != src || d < 0 || int(d) >= ls.n || d == src || seen[d] {
				return fmt.Errorf("bestPath: unexpected row %s at node %d", t, s)
			}
			seen[d] = true
			if want := ls.dist[s][d]; cost != want {
				return fmt.Errorf("bestPath: %s, oracle cost %d", t, want)
			}
			if err := ls.checkPath(src, d, cost, path); err != nil {
				return fmt.Errorf("bestPath: %s: %v", t, err)
			}
		}
		for d := range seen {
			if !seen[d] && d != s && ls.dist[s][d] != unreachable {
				return fmt.Errorf("bestPath(@%d,%d,_,_) missing, oracle cost %d", s, d, ls.dist[s][d])
			}
		}
	}
	return nil
}

func (ls *linkState) checkPath(src, dst types.NodeID, cost int64, path []types.Value) error {
	if len(path) < 2 || path[0].AsNode() != src || path[len(path)-1].AsNode() != dst {
		return fmt.Errorf("path does not lead from %d to %d", src, dst)
	}
	visited := map[types.NodeID]bool{}
	var total int64
	for i, v := range path {
		u := v.AsNode()
		if visited[u] {
			return fmt.Errorf("path visits %d twice", u)
		}
		visited[u] = true
		if i == 0 {
			continue
		}
		c, ok := ls.cost[[2]types.NodeID{path[i-1].AsNode(), u}]
		if !ok {
			return fmt.Errorf("no link %d-%d", path[i-1].AsNode(), u)
		}
		total += c
	}
	if total != cost {
		return fmt.Errorf("path costs %d", total)
	}
	return nil
}

// connectedWithout reports whether topo stays connected when link l is
// removed.
func connectedWithout(topo *topology.Topology, l topology.Link) bool {
	adj := make([][]types.NodeID, topo.N)
	for _, k := range topo.Links {
		if k != l {
			adj[k.U] = append(adj[k.U], k.V)
			adj[k.V] = append(adj[k.V], k.U)
		}
	}
	seen := make([]bool, topo.N)
	seen[0] = true
	stack := []types.NodeID{0}
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				reached++
				stack = append(stack, v)
			}
		}
	}
	return reached == topo.N
}

// canonical renders a provenance polynomial so that two polynomials with
// the same structure compare equal: base literals by VID and node (the
// distributed processor labels them with the tuple, the central graph with
// the VID), sums and products with their annotation and their children
// sorted.
func canonical(e *algebra.Expr) string {
	switch e.Op {
	case algebra.OpZero:
		return "0"
	case algebra.OpOne:
		return "1"
	case algebra.OpBase:
		return fmt.Sprintf("%s@%d", e.Base.VID, e.Base.Node)
	}
	kids := make([]string, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = canonical(k)
	}
	sort.Strings(kids)
	op := "+"
	if e.Op == algebra.OpProd {
		op = "*"
	}
	return op + "<" + e.Ann + ">(" + strings.Join(kids, ",") + ")"
}
