package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/obs/statesize"
	"switchmon/internal/property"
)

// Helpers shared by the two workloads that cross the exporter → wire →
// collector → ShardedMonitor fabric.

var benchStart = time.Now()

// nowNs is monotonic nanoseconds since the process started.
func nowNs() int64 { return int64(time.Since(benchStart)) }

const quiesceTimeout = 20 * time.Second

// quiesce waits until every exporter's queue is empty and each event
// it numbered is accounted for by its collector: applied, or declared
// lost by a sequence gap. It does not wait on the applied-event count
// alone: events the collector declares lost never arrive, and a wait on
// them would never end. Nor does it wait for BatchesAcked to reach
// BatchesSent: under the batch-reorder fault a cumulative ack can pop a
// batch the exporter never sent, and the two counters then never meet
// again (see exporter.Exporter.applyAck).
func quiesce(flush func(), routes func() []route) error {
	deadline := time.Now().Add(quiesceTimeout)
	flush()
	for {
		idle := true
		for _, rt := range routes() {
			if !rt.idle() {
				idle = false
				break
			}
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("exporters not drained after %v: %+v", quiesceTimeout, routes())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// route is one exporter → collector connection as quiesce sees it.
type route struct {
	X exporter.Stats
	C collector.Stats
}

func (rt route) idle() bool {
	return rt.X.QueueDepth == 0 && rt.C.Events+rt.C.GapEvents == rt.X.Published+rt.X.LossNoted
}

// unsentAcked is the number of batches a route's exporter counted as
// acknowledged without having sent them.
func (rt route) unsentAcked() uint64 {
	if rt.X.BatchesAcked > rt.X.BatchesSent {
		return rt.X.BatchesAcked - rt.X.BatchesSent
	}
	return 0
}

// verdictClock holds, per flow slot, when the flow's injected violation
// was due and when its event reached the collector's sink, and collects
// the latencies measured from them. Slots are written by the generator
// and the collector's read loop and read by shard goroutines.
type verdictClock struct {
	due, published, submitted []atomic.Int64

	mu                       sync.Mutex
	detect                   []float64 // due → OnViolation, µs
	transit, toSink, verdict []float64 // due → SubmitBatch, Publish → SubmitBatch, SubmitBatch → OnViolation, µs
}

func newVerdictClock(slots int) *verdictClock {
	return &verdictClock{due: make([]atomic.Int64, slots), published: make([]atomic.Int64, slots),
		submitted: make([]atomic.Int64, slots)}
}

// verdictAt records the latencies of a verdict for slot f.
func (c *verdictClock) verdictAt(f int, traced bool) {
	now := nowNs()
	c.mu.Lock()
	c.detect = append(c.detect, float64(now-c.due[f].Load())/1e3)
	if traced {
		c.verdict = append(c.verdict, float64(now-c.submitted[f].Load())/1e3)
	}
	c.mu.Unlock()
}

// take returns and clears the detection samples.
func (c *verdictClock) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.detect
	c.detect = nil
	return d
}

// layers returns the p50 of each traced latency component.
func (c *verdictClock) layers() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]float64{}
	for name, xs := range map[string][]float64{
		"fabric.transit_us": c.transit, "exporter.to_sink_us": c.toSink, "core.verdict_us": c.verdict,
	} {
		sort.Float64s(xs)
		out[name] = percentile(xs, 0.5)
	}
	return out
}

func (c *verdictClock) reset() {
	c.mu.Lock()
	c.transit, c.toSink, c.verdict, c.detect = nil, nil, nil, nil
	c.mu.Unlock()
}

// timedSink is the traced run's collector.Sink: it times SubmitBatch on
// the collector's read loop and stamps when injected events arrive.
type timedSink struct {
	*core.ShardedMonitor
	slotOf func(e *core.Event) (int, bool) // slot of an injected violation event
	clock  *verdictClock

	ns, events atomic.Int64
}

func (s *timedSink) SubmitBatch(evs []core.Event, release func()) error {
	t0 := nowNs()
	for i := range evs {
		if f, ok := s.slotOf(&evs[i]); ok {
			s.clock.submitted[f].Store(t0)
			s.clock.mu.Lock()
			s.clock.transit = append(s.clock.transit, float64(t0-s.clock.due[f].Load())/1e3)
			s.clock.toSink = append(s.clock.toSink, float64(t0-s.clock.published[f].Load())/1e3)
			s.clock.mu.Unlock()
		}
	}
	n := len(evs)
	err := s.ShardedMonitor.SubmitBatch(evs, release)
	s.ns.Add(nowNs() - t0)
	s.events.Add(int64(n))
	return err
}

func (s *timedSink) reset() {
	s.ns.Store(0)
	s.events.Store(0)
}

// perEvent is the sink's mean SubmitBatch time per event.
func (s *timedSink) perEvent() float64 {
	return float64(s.ns.Load()) / float64(max(s.events.Load(), 1))
}

// violationCounter counts verdicts per property from any goroutine.
type violationCounter struct {
	names  []string
	counts []atomic.Uint64
}

func newViolationCounter(names []string) *violationCounter {
	return &violationCounter{names: names, counts: make([]atomic.Uint64, len(names))}
}

func (vc *violationCounter) add(prop string) bool {
	for i, n := range vc.names {
		if n == prop {
			vc.counts[i].Add(1)
			return true
		}
	}
	return false
}

func (vc *violationCounter) snapshot() []uint64 {
	out := make([]uint64, len(vc.names))
	for i := range vc.counts {
		out[i] = vc.counts[i].Load()
	}
	return out
}

// bindingIP returns the numeric value bound to variable v.
func bindingIP(viol *core.Violation, v property.Var) (uint64, bool) {
	val, ok := viol.Bindings[v]
	if !ok || val.IsStr() {
		return 0, false
	}
	return val.Uint64(), true
}

// markedProps is the set of properties the ledger marks unsound.
func markedProps(marks []core.UnsoundMark) map[string]bool {
	out := map[string]bool{}
	for _, m := range marks {
		out[m.Property] = true
	}
	return out
}

func shardSkew(before, after []core.Stats) float64 {
	var sum, top float64
	for i := range after {
		d := float64(after[i].Events - before[i].Events)
		sum += d
		top = max(top, d)
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(after)))
}

// stateBytes is the approximate resident instance state of a report.
func stateBytes(rep statesize.Report) float64 {
	var b int64
	for _, ps := range rep.Properties {
		b += ps.Bytes
	}
	return float64(b)
}

// flowOfInside maps an inside address made by flowAddrs back to its flow.
func flowOfInside(ip uint64, flows int) (int, bool) {
	f := int(ip) - 0x0a000001
	return f, f >= 0 && f < flows
}
