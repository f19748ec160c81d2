package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/topology"
	"repro/internal/types"
)

// TestWorkloadsSmoke runs every workload, oracles on, at one and at two
// cycles, and requires the per-operation deterministic counters of both
// lengths to match: counters exclude set-up and do not depend on run
// length.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var perOp [2]counters
			for i, cycles := range []int{1, 2} {
				res, err := measure(w, options{seed: 7, minCycles: cycles, maxCycles: cycles, setupReps: 1})
				if err != nil {
					t.Fatal(err)
				}
				if res.rec.failed > 0 || res.rec.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", res.rec.failed, res.rec.attempted, res.rec.failures)
				}
				if len(res.mismatch) > 0 {
					t.Fatalf("cycles differ: %v", res.mismatch)
				}
				perOp[i] = res.total
				for k := range perOp[i] {
					perOp[i][k] /= int64(cycles)
				}
			}
			if perOp[0] != perOp[1] {
				t.Errorf("per-cycle counters depend on run length: %s", diffCounters(perOp[0], perOp[1]))
			}
			if perOp[0][cOps] == 0 || perOp[0][cDeltas] == 0 || perOp[0][cWire] == 0 {
				t.Errorf("counters record no work: %v", perOp[0])
			}
		})
	}
}

// TestOutputMatchesBenchmarkJSON runs the command both ways on the
// quickest workload and checks that the result line carries exactly the
// metrics BENCHMARK.json lists, with their units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %v", got, workloadNames())
	}
	t.Chdir(t.TempDir())
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "mincost-converge", "--seed", "3", "--seconds", "0.01", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("--trace %s: exit %d: %s%s", trace, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("--trace %s: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("--trace %s metrics\n got %v\nwant %v", trace, got, exp)
		}
	}
	if _, err := os.Stat(filepath.Join(".bench_build", "spans-mincost-converge-seed3.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

// TestOraclesRejectWrongState feeds the oracles states that are wrong in
// the ways a broken engine could be: they must notice.
func TestOraclesRejectWrongState(t *testing.T) {
	topo := topology.Figure3()
	full := newLinkState(topo, nil)
	cut := newLinkState(topo, topo.Links[:1])
	rowsOf := func(ls *linkState) func(types.NodeID) []types.Tuple {
		return func(s types.NodeID) []types.Tuple {
			var out []types.Tuple
			for d := 0; d < ls.n; d++ {
				if c := ls.minCost(s, types.NodeID(d)); c != unreachable {
					out = append(out, types.NewTuple("bestPathCost", types.Node(s), types.Node(types.NodeID(d)), types.Int(c)))
				}
			}
			return out
		}
	}
	if err := full.checkMinCost(rowsOf(full)); err != nil {
		t.Fatalf("MINCOST oracle rejects its own state: %v", err)
	}
	if err := full.checkMinCost(rowsOf(cut)); err == nil {
		t.Error("MINCOST oracle accepted the state of another link set")
	}

	l := topo.Links[0]
	path := func(nodes ...types.NodeID) []types.Value {
		var vs []types.Value
		for _, n := range nodes {
			vs = append(vs, types.Node(n))
		}
		return vs
	}
	if err := full.checkPath(l.U, l.V, l.Cost, path(l.U, l.V)); err != nil {
		t.Errorf("a one-link path is rejected: %v", err)
	}
	for name, err := range map[string]error{
		"wrong cost":   full.checkPath(l.U, l.V, l.Cost+1, path(l.U, l.V)),
		"removed link": cut.checkPath(l.U, l.V, l.Cost, path(l.U, l.V)),
		"loop":         full.checkPath(l.U, l.V, 3*l.Cost, path(l.U, l.V, l.U, l.V)),
		"wrong end":    full.checkPath(l.U, l.U, l.Cost, path(l.U, l.V)),
	} {
		if err == nil {
			t.Errorf("PATHVECTOR oracle accepted a path with a %s", name)
		}
	}

	a := algebra.NewBase(algebra.Base{VID: types.HashString("a"), Node: 1})
	b := algebra.NewBase(algebra.Base{VID: types.HashString("b"), Node: 2})
	if canonical(algebra.Sum("@1", a, b)) != canonical(algebra.Sum("@1", b, a)) {
		t.Error("canonical form depends on the order of alternatives")
	}
	if canonical(algebra.Sum("@1", a, b)) == canonical(algebra.Prod("@1", a, b)) {
		t.Error("canonical form confuses sum and product")
	}
}
