// Command perfbench is the repository benchmark. It runs one named workload
// against the public API of the engine, the simulator and the query
// processor, checks every result against an oracle of its own, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its output. From the repository root:
//
//	bash perfbench/run.sh --workload query-flap --seed 1 --seconds 20 --trace 0
//
// or, from this directory, go run . with the same flags.
//
// The workloads, and why each was chosen, are listed in workloads.go. A run
// sets up (several times, reporting the median), then repeats whole cycles
// of operations until --seconds have passed. Every cycle of one seed does
// the same work, so the deterministic counters of each cycle must match the
// first one exactly; a mismatch fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	fmt.Fprintf(stdout, "host %s\n", hostInfo(*seed))

	var out runOutput
	var err error
	if *trace == 0 {
		out, err = untracedRun(w, *seed, *seconds, stdout)
	} else {
		out, err = tracedRun(w, *seed, *seconds, stdout, filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runOutput is the last line of the output, the run's machine-readable result.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const setupReps = 3

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, seed int64, seconds float64, log io.Writer) (runOutput, error) {
	res, err := measure(w, options{seed: seed, seconds: seconds, minCycles: 1, setupReps: setupReps})
	if err != nil {
		return runOutput{}, err
	}
	res.printReport(log)
	return res.output(res.endToEnd()), nil
}

// tracedRun measures the per-layer metrics. It first runs the workload
// untraced for half the time, then traced for the other half, and fails
// when the two runs' deterministic counters differ: the wrappers must
// observe the work without changing it.
func tracedRun(w *workload, seed int64, seconds float64, log io.Writer, spansPath string) (runOutput, error) {
	base, err := measure(w, options{seed: seed, seconds: seconds / 2, minCycles: 1, setupReps: 1})
	if err != nil {
		return runOutput{}, err
	}
	res, err := measure(w, options{seed: seed, seconds: seconds / 2, minCycles: 1, setupReps: 1, traced: true})
	if err != nil {
		return runOutput{}, err
	}
	if base.perCycle != res.perCycle {
		res.mismatch = append(res.mismatch, "traced run: "+diffCounters(base.perCycle, res.perCycle))
	}
	res.printReport(log)
	m := res.perLayer()
	m["trace_overhead_frac"] = metric{median(res.rec.opDur)/median(base.rec.opDur) - 1, "frac"}
	if spansPath != "" {
		if err := res.tracer.writeSpans(spansPath, hostInfo(seed)); err != nil {
			return runOutput{}, err
		}
		fmt.Fprintf(log, "spans written to %s\n", spansPath)
	}
	out := res.output(m)
	out.Attempted += base.rec.attempted
	out.Failed += base.rec.failed
	out.Correct = out.Correct && base.rec.failed == 0 && len(base.mismatch) == 0
	return out, nil
}

func (r *result) output(m map[string]metric) runOutput {
	return runOutput{
		Correct:   r.rec.failed == 0 && len(r.mismatch) == 0 && r.rec.attempted > 0,
		Attempted: r.rec.attempted,
		Failed:    r.rec.failed,
		Metrics:   m,
	}
}

// endToEnd returns the metrics BENCHMARK.json lists as end_to_end. Every
// workload reports every one of them: a primary operation is a convergence,
// a churn batch or a query, and an update is the topology change each
// workload absorbs (the whole link set, a churn batch, a link flap).
func (r *result) endToEnd() map[string]metric {
	c := r.total
	return map[string]metric{
		"setup_s":        {median(r.setup), "s"},
		"op_ms_p50":      {1e3 * median(r.rec.opDur), "ms"},
		"ops_per_s":      {float64(len(r.rec.opDur)) / sum(r.rec.opDur), "1/s"},
		"update_ms_p50":  {1e3 * median(r.rec.updDur), "ms"},
		"wire_kb_per_op": {float64(c[cWire]) / 1e3 / float64(c[cOps]), "kB"},
		"heap_mb":        {r.heapMB, "MB"},
	}
}

// perLayer returns the metrics BENCHMARK.json lists as per_layer. Span
// times are seconds per primary operation; on query-flap the flaps' spans
// are charged to the queries between them.
func (r *result) perLayer() map[string]metric {
	c := r.total
	ops := float64(c[cOps])
	perOp := func(v float64) float64 { return v / ops }
	kinds, self := r.tracer.totals()
	if !r.w.simnet {
		self = 0 // no simulator: the spans' own time is the harness's
	}
	flaps := math.Max(float64(c[cUpdates]), 1)
	// The scheduler bypasses the wrapped handlers; its own accounting
	// counts engine messages only.
	engineMsgs := c[cMsgs]
	if r.w.simnet {
		engineMsgs = r.tracer.msgs[kEngineHandle]
	}
	m := map[string]metric{
		"engine.handle_s":                  {perOp(kinds[kEngineHandle]), "s"},
		"engine.base_s":                    {perOp(kinds[kBase]), "s"},
		"engine.quiesce_s":                 {perOp(kinds[kQuiesce]), "s"},
		"engine.sched_run_s":               {perOp(kinds[kSched]), "s"},
		"engine.deltas_per_op":             {perOp(float64(c[cDeltas])), "count"},
		"engine.rules_fired_per_op":        {perOp(float64(c[cRules])), "count"},
		"engine.msgs_per_op":               {perOp(float64(engineMsgs)), "count"},
		"engine.sched_rounds_per_op":       {perOp(float64(c[cRounds])), "count"},
		"provenance.prov_rows":             {float64(r.store[0]), "count"},
		"provenance.ruleexec_rows":         {float64(r.store[1]), "count"},
		"provenance.parents":               {float64(r.store[2]), "count"},
		"types.intern_strs_per_op":         {perOp(float64(r.intern[0])), "count"},
		"types.intern_ids_per_op":          {perOp(float64(r.intern[1])), "count"},
		"types.intern_lists_per_op":        {perOp(float64(r.intern[2])), "count"},
		"types.intern_payloads_per_op":     {perOp(float64(r.intern[3])), "count"},
		"simnet.dispatch_s":                {perOp(self), "s"},
		"simnet.events_per_op":             {perOp(float64(c[cEvents])), "count"},
		"simnet.dropped":                   {float64(c[cDropped]), "count"},
		"provquery.handle_s":               {perOp(kinds[kQueryHandle]), "s"},
		"provquery.issue_s":                {perOp(kinds[kIssue]), "s"},
		"provquery.msgs_per_query":         {perOp(float64(r.tracer.msgs[kQueryHandle])), "count"},
		"provquery.cache_hit_ratio":        {ratio(c[cCacheHits], c[cCacheHits]+c[cCacheMisses]), "frac"},
		"provquery.invalidations_per_flap": {float64(c[cInvalidations]) / flaps, "count"},
		"provquery.sim_ms_p50":             {median(r.rec.simLat), "sim_ms"},
		"ndlog.compile_s":                  {r.compileS, "s"},
		"runtime.alloc_mb_per_op":          {perOp(r.rt.allocBytes / 1e6), "MB"},
		"runtime.mallocs_per_op":           {perOp(r.rt.mallocs), "count"},
		"runtime.gc_cycles_per_op":         {perOp(r.rt.gcCycles), "count"},
		"runtime.gc_cpu_frac":              {r.rt.gcCPU / math.Max(r.rt.totalCPU, 1e-9), "frac"},
	}
	for _, l := range layers {
		m[l+".cpu_share"] = metric{r.cpu[l], "frac"}
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printReport writes the human-readable summary: the workload's metrics
// under its own names, the per-operation deterministic counters, and any
// failures.
func (r *result) printReport(w io.Writer) {
	rec := r.rec
	fmt.Fprintf(w, "workload %s seed %d: %d cycles, %d operations (%s each), %d updates, %.2f s timed, %d setups\n",
		r.w.name, r.seed, r.cycles, len(rec.opDur), r.w.op, len(rec.updDur), r.wall, len(r.setup))
	fmt.Fprintf(w, "  setup_s            %.4f s (median of %d)\n", median(r.setup), len(r.setup))
	fmt.Fprintf(w, "  failed_frac        %.4f (%d of %d operations)\n", ratio(int64(rec.failed), int64(rec.attempted)), rec.failed, rec.attempted)
	fmt.Fprintf(w, "  heap_mb            %.1f MB\n", r.heapMB)
	fmt.Fprintf(w, "  wire_kb_per_op     %.3f kB per %s\n", float64(r.total[cWire])/1e3/float64(r.total[cOps]), r.w.op)
	for _, line := range r.w.report(r) {
		fmt.Fprintf(w, "  %s\n", line)
	}
	per := r.perCycle
	ops := float64(per[cOps])
	var parts []string
	for i, v := range per {
		if v != 0 && i != cOps {
			parts = append(parts, fmt.Sprintf("%s=%.6g", counterNames[i], float64(v)/ops))
		}
	}
	fmt.Fprintf(w, "  per-%s counters   %s\n", r.w.op, strings.Join(parts, " "))
	for _, f := range rec.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if rec.failed > len(rec.failures) {
		fmt.Fprintf(w, "  ... %d more failures\n", rec.failed-len(rec.failures))
	}
	for _, m := range r.mismatch {
		fmt.Fprintf(w, "  NONDETERMINISTIC %s\n", m)
	}
}

// tail formats a percentile only when at least ten samples lie beyond it.
func tail(name string, samples []float64, p float64, scale float64, unit string) string {
	beyond := int(float64(len(samples)) * (1 - p))
	if beyond < 10 {
		return fmt.Sprintf("%-18s n/a (%d samples, fewer than 10 beyond p%.0f)", name, len(samples), 100*p)
	}
	return fmt.Sprintf("%-18s %.4g %s (%d samples)", name, scale*percentile(samples, p), unit, len(samples))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// hostInfo stamps a result with where and how it was measured.
func hostInfo(seed int64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	info := map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"shards":     engine.EffectiveShards(engine.AutoShards),
		"seed":       seed,
	}
	b, _ := json.Marshal(info) // a map of strings and numbers always marshals
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
