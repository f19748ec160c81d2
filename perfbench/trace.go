package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/provquery"
	"repro/internal/types"
)

// kind names a child span: a call into one layer made while an operation
// runs. Child spans never nest: the simulator is event-driven, so a
// handler, the idle hook and a base-tuple injection each return before the
// next begins.
type kind int

const (
	kBase         kind = iota // base-tuple injection and the engine work it triggers
	kEngineHandle             // engine.Node.HandleMessage, via the wrapped handler
	kQuiesce                  // Sim.OnIdle: staged release, flush, replan
	kSched                    // engine.Scheduler.Run
	kIssue                    // core.Cluster.Query
	kQueryHandle              // provquery.Processor.Handle, via the wrapped handler
	nKinds
)

var kindNames = [nKinds]string{"engine.base", "engine.handle", "engine.quiesce", "engine.sched_run", "provquery.issue", "provquery.handle"}

// span is one operation. Its child spans are folded per kind (count and
// total time): a convergence delivers tens of thousands of messages, too
// many to keep one record each.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	n          [nKinds]int32
	d          [nKinds]time.Duration
}

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	origin time.Time
	spans  []span
	open   bool
	msgs   [nKinds]int64 // messages between nodes, by handling layer
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, at time.Time) {
	t.spans = append(t.spans, span{name: name, start: at.Sub(t.origin)})
	t.open = true
}

func (t *tracer) end(at time.Time) {
	t.spans[len(t.spans)-1].end = at.Sub(t.origin)
	t.open = false
}

func (t *tracer) child(k kind, d time.Duration) {
	if !t.open {
		return
	}
	s := &t.spans[len(t.spans)-1]
	s.n[k]++
	s.d[k] += d
}

// totals returns the seconds spent in each child kind and the operations'
// self time (span minus children) over the whole run.
func (t *tracer) totals() (kinds [nKinds]float64, self float64) {
	for i := range t.spans {
		s := &t.spans[i]
		own := s.end - s.start
		for k := range s.d {
			kinds[k] += s.d[k].Seconds()
			own -= s.d[k]
		}
		self += own.Seconds()
	}
	return kinds, self
}

// wrap installs the tracing wrappers on a cluster: every host's handler is
// re-registered behind one that times it, and the idle hook is wrapped
// likewise. Neither changes what the cluster does.
func (t *tracer) wrap(c *core.Cluster) {
	for i, h := range c.Hosts {
		c.Net.Register(types.NodeID(i), &tracedHost{id: types.NodeID(i), h: h, t: t})
	}
	idle := c.Sim.OnIdle
	c.Sim.OnIdle = func() bool {
		t0 := time.Now()
		more := idle()
		t.child(kQuiesce, time.Since(t0))
		return more
	}
}

type tracedHost struct {
	id types.NodeID
	h  *core.Host
	t  *tracer
}

func (w *tracedHost) HandleMessage(from types.NodeID, payload any, size int) {
	k := kEngineHandle
	if _, ok := payload.(*provquery.Msg); ok {
		k = kQueryHandle
	}
	if from != w.id {
		w.t.msgs[k]++
	}
	t0 := time.Now()
	w.h.HandleMessage(from, payload, size)
	w.t.child(k, time.Since(t0))
}

// writeSpans writes the host line and then one JSON object per span.
func (t *tracer) writeSpans(path, host string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"host\":%s}\n", host)
	type child struct {
		N  int32 `json:"n"`
		Ns int64 `json:"ns"`
	}
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		kids := map[string]child{}
		for k := range s.n {
			if s.n[k] > 0 {
				kids[kindNames[k]] = child{s.n[k], s.d[k].Nanoseconds()}
			}
		}
		rec := struct {
			ID       int              `json:"id"`
			Name     string           `json:"name"`
			StartNs  int64            `json:"start_ns"`
			EndNs    int64            `json:"end_ns"`
			Children map[string]child `json:"children,omitempty"`
		}{i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), kids}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
