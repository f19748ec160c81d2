package core

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/topology"
	"repro/internal/types"
)

// The golden executor fence: a canonical dump of every workload's simulated
// run — visible tuples of every relation, prov and ruleExec rows, value-mode
// payloads in their wire encoding, and the simnet delta/message/byte
// counters — compared byte for byte against testdata/golden. The dumps pin
// the engine's observable behaviour across executor refactors; regenerate
// them only for an intended behaviour change, with
//
//	go test ./internal/core -run TestGoldenExecutorDumps -update-golden
//
// and explain every changed line in the change description.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current engine")

// goldenApp is one program of the golden matrix with its EDB seeding and
// its "one link" churn: the base tuples retracted and then restored.
type goldenApp struct {
	name    string
	prog    func() *ndlog.Program
	noLinks bool
	base    func(*topology.Topology) map[types.NodeID][]types.Tuple
	link    func(l topology.Link) []types.Tuple
	packets bool // inject one packet per stage (PACKETFORWARD)
}

func linkPair(l topology.Link) []types.Tuple {
	return []types.Tuple{apps.LinkTuple(l.U, l.V, l.Cost), apps.LinkTuple(l.V, l.U, l.Cost)}
}

var goldenApps = []goldenApp{
	{name: "mincost", prog: apps.MinCost, link: linkPair},
	{name: "pathvector", prog: apps.PathVector, link: linkPair},
	{name: "packetforward", prog: apps.PacketForward, link: linkPair, packets: true},
	{name: "chord", prog: apps.Chord, noLinks: true,
		base: func(topo *topology.Topology) map[types.NodeID][]types.Tuple {
			b := apps.ChordBase(topo)
			for _, lk := range apps.ChordLookups(topo, 4, 7) {
				b[lk.Loc()] = append(b[lk.Loc()], lk)
			}
			return b
		},
		link: func(l topology.Link) []types.Tuple {
			return []types.Tuple{apps.AliveTuple(l.U, l.V), apps.AliveTuple(l.V, l.U)}
		}},
	{name: "policy", prog: apps.Policy, link: linkPair,
		base: func(topo *topology.Topology) map[types.NodeID][]types.Tuple {
			return apps.PolicyTuples(topo)
		}},
}

var goldenTopos = []struct {
	name string
	topo func() *topology.Topology
	link int // index of the churned link
}{
	{"fig3", topology.Figure3, 1},
	{"ring10", func() *topology.Topology { return topology.Ring(10, rand.New(rand.NewSource(1))) }, 2},
}

// goldenDump renders the cluster's complete observable state canonically.
func goldenDump(b *strings.Builder, c *Cluster, stage string) {
	var deltas, msgs int64
	for _, h := range c.Hosts {
		deltas += h.Engine.DeltasProcessed()
	}
	for _, m := range c.Net.SentMsgs {
		msgs += m
	}
	fmt.Fprintf(b, "== %s\ncounters deltas=%d msgs=%d bytes=%d dropped=%d\n",
		stage, deltas, msgs, c.Net.TotalBytes, c.Net.DroppedMsgs)
	var preds []string
	for _, info := range c.Prog.Preds() {
		if !info.Event {
			preds = append(preds, info.Name)
		}
	}
	// Relayed meta rows (the centralized server's copy of the graph).
	preds = append(preds, "prov", "ruleExec")
	for i, h := range c.Hosts {
		fmt.Fprintf(b, "-- node %d\n", i)
		for _, pred := range preds {
			for _, tu := range h.Engine.Tuples(pred) {
				b.WriteString(tu.String())
				if h.Engine.Mode == engine.ProvValue {
					if ref, ok := h.Engine.PayloadOf(tu); ok {
						b.WriteString(" payload=")
						b.WriteString(hex.EncodeToString(h.Engine.Mgr.Encode(ref, nil)))
					}
				}
				b.WriteByte('\n')
			}
		}
		for _, row := range h.Engine.Store.ProvRows() {
			b.WriteString("prov|" + row + "\n")
		}
		for _, row := range h.Engine.Store.RuleExecRows() {
			b.WriteString("re|" + row + "\n")
		}
	}
}

// goldenRun boots one configuration, then retracts and restores one link,
// dumping after each fixpoint.
func goldenRun(t *testing.T, app goldenApp, topo *topology.Topology, churned int, mode engine.ProvMode) string {
	t.Helper()
	cfg := Config{Topo: topo, Prog: app.prog(), Mode: mode, NoLinkTuples: app.noLinks}
	if app.base != nil {
		cfg.Base = app.base(topo)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	step := func(stage string, act func()) {
		act()
		if app.packets {
			c.InjectEvent(apps.PacketTuple(0, 0, types.NodeID(topo.N-1), 64))
		}
		if _, err := c.RunToFixpoint(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		goldenDump(&b, c, stage)
	}
	l := topo.Links[churned]
	step("boot", func() {})
	step("retract", func() {
		for _, tu := range app.link(l) {
			c.DeleteBase(tu)
		}
	})
	step("restore", func() {
		for _, tu := range app.link(l) {
			c.InsertBase(tu)
		}
	})
	return b.String()
}

// TestGoldenExecutorDumps runs every (app, topology, provenance mode)
// configuration and compares its dump with the committed golden file.
func TestGoldenExecutorDumps(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range goldenApps {
		for _, tp := range goldenTopos {
			for _, mode := range provModes {
				name := fmt.Sprintf("%s-%s-%s", app.name, tp.name, mode)
				t.Run(name, func(t *testing.T) {
					got := goldenRun(t, app, tp.topo(), tp.link, mode)
					path := filepath.Join(dir, name+".txt")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if got != string(want) {
						t.Errorf("dump differs from %s\n%s", path, firstDiff(string(want), got))
					}
				})
			}
		}
	}
}

// firstDiff reports the first differing line of two dumps.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "identical"
}
