// Command benchjson converts `go test -bench` output into the machine-
// readable before/after record the repo keeps under version control
// (BENCH_PR<n>.json). It parses benchmark result lines from a baseline
// file and a current file, averages repeated -count runs per benchmark,
// and emits one JSON document with both sides plus the speedup ratios.
//
// Usage:
//
//	go run ./cmd/benchjson -baseline bench_before.txt -current bench_current.txt -out BENCH_PR<n>.json
//
// The baseline may instead be a previously committed record: with
// -baseline-json the `current` side of that JSON document becomes the
// baseline, which is how `make bench` and CI compare a run against the
// standing numbers. One of -baseline and -baseline-json is required. -print renders a benchstat-style delta table to stdout
// (report-only; the exit code never depends on the deltas).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is the averaged outcome of one benchmark.
type Result struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"` // B/op, allocs/op, custom units
}

// Comparison pairs a baseline and current result for one benchmark.
type Comparison struct {
	Baseline *Result `json:"baseline,omitempty"`
	Current  *Result `json:"current,omitempty"`
	// Speedup is baseline ns/op divided by current ns/op (>1 is faster).
	Speedup float64 `json:"speedup,omitempty"`
	// AllocRatio is current allocs/op divided by baseline allocs/op
	// (<1 is fewer allocations).
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

func parseFile(path string) (map[string]*Result, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	type acc struct {
		runs    int
		ns      float64
		metrics map[string]float64
	}
	accs := map[string]*acc{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -N GOMAXPROCS suffix go test appends to names.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		a := accs[name]
		if a == nil {
			a = &acc{metrics: map[string]float64{}}
			accs[name] = a
			order = append(order, name)
		}
		a.runs++
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				a.ns += v
			} else {
				a.metrics[unit] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	out := map[string]*Result{}
	for name, a := range accs {
		r := &Result{Name: name, Runs: a.runs, NsPerOp: a.ns / float64(a.runs)}
		if len(a.metrics) > 0 {
			r.Metrics = map[string]float64{}
			for unit, sum := range a.metrics {
				r.Metrics[unit] = sum / float64(a.runs)
			}
		}
		out[name] = r
	}
	return out, order, nil
}

// jsonDoc mirrors the committed BENCH_PR<n>.json layout.
type jsonDoc struct {
	Note       string                 `json:"note"`
	Benchmarks map[string]*Comparison `json:"benchmarks"`
	Order      []string               `json:"order"`
}

// loadJSONBaseline reads a committed record and returns its `current` side
// as the baseline result set.
func loadJSONBaseline(path string) (map[string]*Result, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc jsonDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*Result{}
	var order []string
	for _, name := range doc.Order {
		if c := doc.Benchmarks[name]; c != nil && c.Current != nil {
			out[name] = c.Current
			order = append(order, name)
		}
	}
	return out, order, nil
}

// printDelta renders a benchstat-style comparison table.
func printDelta(base, cur map[string]*Result, order []string) {
	fmt.Printf("%-34s %15s %15s %9s %10s\n", "benchmark", "baseline ns/op", "current ns/op", "delta", "allocs Δ")
	for _, name := range order {
		b, c := base[name], cur[name]
		switch {
		case b == nil && c == nil:
			continue
		case b == nil:
			fmt.Printf("%-34s %15s %15.0f %9s %10s\n", name, "-", c.NsPerOp, "new", "-")
		case c == nil:
			fmt.Printf("%-34s %15.0f %15s %9s %10s\n", name, b.NsPerOp, "-", "gone", "-")
		default:
			delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			allocs := "-"
			if ba, ca := b.Metrics["allocs/op"], c.Metrics["allocs/op"]; ba > 0 {
				allocs = fmt.Sprintf("%+.1f%%", (ca-ba)/ba*100)
			}
			fmt.Printf("%-34s %15.0f %15.0f %+8.1f%% %10s\n", name, b.NsPerOp, c.NsPerOp, delta, allocs)
		}
	}
}

func main() {
	baselinePath := flag.String("baseline", "", "pre-change bench output (text)")
	baselineJSON := flag.String("baseline-json", "", "committed BENCH_*.json whose `current` side is the baseline (overrides -baseline)")
	currentPath := flag.String("current", "", "post-change bench output (required)")
	outPath := flag.String("out", "", "output JSON path (omit to skip writing)")
	note := flag.String("note", "", "note recorded in the output document")
	doPrint := flag.Bool("print", false, "print a benchstat-style delta table to stdout")
	flag.Parse()
	if *currentPath == "" || *baselinePath == "" && *baselineJSON == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -current and one of -baseline, -baseline-json are required")
		os.Exit(2)
	}

	var base map[string]*Result
	var baseOrder []string
	var err error
	if *baselineJSON != "" {
		base, baseOrder, err = loadJSONBaseline(*baselineJSON)
	} else {
		base, baseOrder, err = parseFile(*baselinePath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	cur, curOrder, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	order := baseOrder
	for _, name := range curOrder {
		if _, ok := base[name]; !ok {
			order = append(order, name)
		}
	}
	if *doPrint {
		printDelta(base, cur, order)
	}
	if *outPath == "" {
		return
	}
	docNote := *note
	if docNote == "" {
		docNote = "before/after benchmark record; regenerate with `make bench`"
	}
	doc := jsonDoc{
		Note:       docNote,
		Benchmarks: map[string]*Comparison{},
		Order:      order,
	}
	for _, name := range order {
		c := &Comparison{Baseline: base[name], Current: cur[name]}
		if c.Baseline != nil && c.Current != nil && c.Current.NsPerOp > 0 {
			c.Speedup = c.Baseline.NsPerOp / c.Current.NsPerOp
			ba := c.Baseline.Metrics["allocs/op"]
			ca := c.Current.Metrics["allocs/op"]
			if ba > 0 {
				c.AllocRatio = ca / ba
			}
		}
		doc.Benchmarks[name] = c
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", *outPath, len(doc.Benchmarks))
}
