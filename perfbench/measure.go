package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/types"
)

// Deterministic counters: identical for one seed whatever the host, the run
// length or tracing. A workload reports them cumulatively; measure takes
// differences, so set-up work is never counted.
const (
	cOps           = iota // primary operations: convergences, batches, queries
	cUpdates              // link flaps (query-flap)
	cDeltas               // engine deltas applied
	cRules                // engine rule firings
	cMsgs                 // wire messages
	cWire                 // wire bytes (payload + header) of primary operations
	cUpdateWire           // wire bytes of flaps
	cRounds               // scheduler rounds
	cEvents               // simulator events
	cDropped              // messages the simulated network dropped
	cCacheHits            // query cache hits
	cCacheMisses          // query cache misses
	cInvalidations        // query cache invalidations
	cSimLatNs             // summed virtual query latency
	nCounters
)

var counterNames = [nCounters]string{"ops", "updates", "deltas", "rules_fired", "msgs", "wire_bytes",
	"update_wire_bytes", "rounds", "events", "dropped", "cache_hits", "cache_misses", "invalidations", "sim_lat_ns"}

type counters [nCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func diffCounters(want, got counters) string {
	var parts []string
	for i := range want {
		if want[i] != got[i] {
			parts = append(parts, fmt.Sprintf("%s %d != %d", counterNames[i], got[i], want[i]))
		}
	}
	return strings.Join(parts, ", ")
}

// instance is one set-up workload.
type instance interface {
	// cycle runs one cycle of operations, timing each through r.
	cycle(r *recorder)
	// counters reports the cumulative deterministic counters.
	counters() counters
	// storeRows reports the provenance store's prov, ruleExec and parent
	// rows across all nodes.
	storeRows() [3]int
	// trace installs the tracing wrappers.
	trace(t *tracer)
}

type options struct {
	seed      int64
	seconds   float64 // length of the timed phase
	minCycles int
	maxCycles int // 0: no limit
	setupReps int
	traced    bool
}

type result struct {
	w        *workload
	seed     int64
	setup    []float64 // seconds per set-up
	compileS float64   // median ndlog parse + engine compile
	rec      *recorder
	tracer   *tracer
	cycles   int
	wall     float64
	perCycle counters // of the first timed cycle
	total    counters // of the whole timed phase
	mismatch []string // cycles whose counters differ from the first
	heapMB   float64
	intern   [4]int // strings, ids, lists, payloads interned in the timed phase
	store    [3]int
	rt       runtimeUse
	cpu      map[string]float64 // layer -> share of CPU samples
}

// Set-up is repeated at least options.setupReps times, and more while it
// has taken less than minSetupSeconds in all, so that a set-up of a few
// milliseconds still has a steady median.
const (
	minSetupSeconds = 0.5
	maxSetupReps    = 50
)

// measure sets the workload up, keeps the last instance, and runs whole
// cycles on it until opts.seconds have passed.
func measure(w *workload, opts options) (*result, error) {
	res := &result{w: w, seed: opts.seed, rec: &recorder{check: true}}
	var compile []float64
	var inst instance
	var spent float64
	for i := 0; i < opts.setupReps || (i < maxSetupReps && spent < minSetupSeconds); i++ {
		inst = nil
		runtime.GC()
		compile = append(compile, compileSeconds(w.prog))
		t0 := time.Now()
		in, err := w.setup(opts.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		res.setup = append(res.setup, d)
		spent += d
		inst = in
	}
	res.compileS = median(compile)
	if opts.traced {
		res.tracer = newTracer()
		res.rec.tr = res.tracer
		inst.trace(res.tracer)
	}

	runtime.GC()
	var prof bytes.Buffer
	if opts.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rt0 := readRuntime()
	s0, i0, l0, p0 := types.InternStats()
	first := inst.counters()
	start := time.Now()
	for opts.maxCycles == 0 || res.cycles < opts.maxCycles {
		if res.cycles >= opts.minCycles && time.Since(start).Seconds() >= opts.seconds {
			break
		}
		before := inst.counters()
		inst.cycle(res.rec)
		d := inst.counters().sub(before)
		if res.cycles == 0 {
			res.perCycle = d
		} else if d != res.perCycle {
			res.mismatch = append(res.mismatch, fmt.Sprintf("cycle %d: %s", res.cycles, diffCounters(res.perCycle, d)))
		}
		res.cycles++
	}
	res.wall = time.Since(start).Seconds()
	res.rt = readRuntime().sub(rt0)
	if opts.traced {
		pprof.StopCPUProfile()
		shares, err := attributeProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		res.cpu = shares
	}
	res.total = inst.counters().sub(first)
	s1, i1, l1, p1 := types.InternStats()
	res.intern = [4]int{s1 - s0, i1 - i0, l1 - l0, p1 - p0}
	res.store = inst.storeRows()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(inst)
	return res, nil
}

// recorder collects the timings and failures of a run.
type recorder struct {
	check     bool    // run the oracles; off for warm-up cycles
	tr        *tracer // nil when untraced
	opDur     []float64
	updDur    []float64
	simLat    []float64 // virtual query latency, ms
	attempted int
	failed    int
	failures  []string // the first few
}

// begin opens an operation span.
func (r *recorder) begin(name string) time.Time {
	t0 := time.Now()
	if r.tr != nil {
		r.tr.begin(name, t0)
	}
	return t0
}

// end closes the span begun at t0 and returns its duration.
func (r *recorder) end(t0 time.Time) time.Duration {
	t1 := time.Now()
	if r.tr != nil {
		r.tr.end(t1)
	}
	return t1.Sub(t0)
}

// child runs fn as a child span of the open operation.
func (r *recorder) child(k kind, fn func()) {
	if r.tr == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	r.tr.child(k, time.Since(t0))
}

// verify runs an oracle outside the timed region. Its CPU samples carry
// the label the profile attribution drops.
func (r *recorder) verify(fn func() error) {
	if !r.check {
		return
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels(harnessLabel, "check"), func(context.Context) { err = fn() })
	if err != nil {
		r.fail(err.Error())
	}
}

// harness runs untimed work between operations (building a cluster),
// labelled like the oracles so the profile attribution drops it.
func (r *recorder) harness(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(harnessLabel, "setup"), func(context.Context) { fn() })
}

// op records a completed operation; update marks it as one whose time also
// counts as an update (a topology change absorbed).
func (r *recorder) op(d time.Duration, primary, update bool) {
	r.attempted++
	if primary {
		r.opDur = append(r.opDur, d.Seconds())
	}
	if update {
		r.updDur = append(r.updDur, d.Seconds())
	}
}

func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// runtimeUse is the Go runtime's work over an interval.
type runtimeUse struct {
	allocBytes, mallocs, gcCycles, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeUse {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeUse{v(0), v(1), v(2), v(3), v(4)}
}

func (a runtimeUse) sub(b runtimeUse) runtimeUse {
	return runtimeUse{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
