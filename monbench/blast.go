package main

import (
	"fmt"
	"math/rand"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/exporter"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// fabric-blast: one publisher drives an exporter (default ShedBlock
// backpressure, one connection, adaptive sealing with a 250 µs target)
// at saturation over loopback TCP into a collector feeding a two-shard
// ShardedMonitor. The adaptive target keeps age seals firing under
// saturation, which the exporter's batch-reorder fault needs; with the
// 5 ms default age no loss showed in about 35 runs. Every flow is opened at
// set-up, by submitting its arrival to the engine directly so that the
// fault cannot strike before the first pass, and so per event the
// engine only reads existing state; the
// exporter's seal and encode, the wire, the collector and the shard
// handoff set the rate. A fixed share of events are injected wrongful
// drops, each followed by the flow's re-opening packet, so every pass
// leaves the same state behind.

type blastSize struct {
	flows       int // opened at set-up
	passEvents  int // events per pass, injections included
	injectEvery int // one drop + re-open pair per this many events
	shards      int
}

var blastSizes = map[sizeClass]blastSize{
	full: {flows: 32768, passEvents: 262144, injectEvery: 1024, shards: 2},
	tiny: {flows: 256, passEvents: 4096, injectEvery: 128, shards: 2},
}

// blastProps run on the collector's engine. Their window is an hour of
// event time, far beyond a run, so no instance expires.
var blastProps = churnProps

type blastInputs struct {
	size   blastSize
	opens  []core.Event // one arrival per flow, published at set-up
	events []core.Event // one pass
	inject []int        // flow of each injected drop, in pass order
}

func genBlast(seed int64, sc sizeClass) inputs {
	sz := blastSizes[sc]
	rng := rand.New(rand.NewSource(seed))
	in := &blastInputs{size: sz}
	out := make([]*packet.Packet, sz.flows)
	ret := make([]*packet.Packet, sz.flows)
	for f := range out {
		a, b := flowAddrs(f)
		sport := uint16(1024 + rng.Intn(60000))
		out[f] = packet.NewTCP(macInside, macOutside, a, b, sport, 443, packet.FlagACK, nil)
		ret[f] = packet.NewTCP(macOutside, macInside, b, a, 443, sport, packet.FlagACK, nil)
		in.opens = append(in.opens, core.Event{Kind: core.KindArrival, Packet: out[f], InPort: 1})
	}
	victims := rng.Perm(sz.flows)
	for i := 0; i < sz.passEvents; i++ {
		switch i % sz.injectEvery {
		case sz.injectEvery - 2:
			f := victims[len(in.inject)%sz.flows]
			in.inject = append(in.inject, f)
			in.events = append(in.events, core.Event{Kind: core.KindEgress, Packet: ret[f], InPort: 2, Dropped: true})
		case sz.injectEvery - 1:
			f := in.inject[len(in.inject)-1]
			in.events = append(in.events, core.Event{Kind: core.KindArrival, Packet: out[f], InPort: 1})
		default:
			f := rng.Intn(sz.flows)
			in.events = append(in.events, core.Event{Kind: core.KindEgress, Packet: ret[f], InPort: 2, OutPort: 1})
		}
	}
	return in
}

type blastRig struct {
	in     *blastInputs
	traced bool
	sm     *core.ShardedMonitor
	col    *collector.Collector
	x      *exporter.Exporter
	sink   *timedSink
	viols  *violationCounter
	clock  *verdictClock
	seq    uint64 // events published so far; drives PacketID and event time
	live0  int
	wrong  []string
	lost   uint64 // events the collector declared lost without a reconnect or shed

	tr struct {
		publish                   layerAcc
		created, live, stateBytes []float64
		x0                        exporter.Stats
		shard0                    []core.Stats
	}
}

func (in *blastInputs) setup(traced bool) (rig, error) {
	sz := in.size
	r := &blastRig{in: in, traced: traced, viols: newViolationCounter(blastProps), clock: newVerdictClock(sz.flows)}
	r.sm = core.NewShardedMonitor(sz.shards, core.Config{Provenance: core.ProvLimited, OnViolation: r.onViolation})
	pm := property.DefaultParams()
	pm.FirewallWindow = time.Hour
	for _, name := range blastProps {
		if err := r.sm.AddProperty(property.CatalogByName(pm, name)); err != nil {
			r.sm.Close()
			return nil, fmt.Errorf("install %s: %w", name, err)
		}
	}
	var sink collector.Sink = r.sm
	if traced {
		r.sink = &timedSink{ShardedMonitor: r.sm, slotOf: r.slotOf, clock: r.clock}
		sink = r.sink
	}
	col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sink)
	if err != nil {
		r.sm.Close()
		return nil, fmt.Errorf("collector: %w", err)
	}
	col.Serve()
	r.col = col
	x, err := exporter.New(exporter.Config{Addr: col.Addr().String(), DPID: 1, TargetSealLatency: 250 * time.Microsecond})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("exporter: %w", err)
	}
	x.Start()
	r.x = x
	for i := range in.opens {
		e := in.opens[i]
		r.seq++
		e.PacketID = core.PacketID(r.seq)
		e.Time = eventTime(r.seq)
		if err := r.sm.Submit(e); err != nil {
			r.close()
			return nil, fmt.Errorf("open flow %d: %w", i, err)
		}
	}
	r.sm.Barrier()
	if got, want := r.sm.ActiveInstances(), len(blastProps)*sz.flows; got != want {
		r.close()
		return nil, fmt.Errorf("live instances after opening the flows = %d, want %d", got, want)
	}
	r.live0 = r.sm.ActiveInstances()
	return r, nil
}

func (r *blastRig) publish(e core.Event) {
	r.seq++
	e.PacketID = core.PacketID(r.seq)
	e.Time = eventTime(r.seq)
	r.x.Publish(e)
}

// eventTime is the event time of the seq'th event of the stream.
func eventTime(seq uint64) time.Time { return sim.Epoch.Add(time.Duration(seq) * 10 * time.Nanosecond) }

func (r *blastRig) route() route { return route{X: r.x.Stats(), C: r.col.Stats()} }

func (r *blastRig) settle() error {
	if err := quiesce(r.x.Flush, func() []route { return []route{r.route()} }); err != nil {
		return fmt.Errorf("%w (ledger %+v)", err, r.sm.Ledger().Snapshot())
	}
	r.sm.Barrier()
	return nil
}

func (r *blastRig) slotOf(e *core.Event) (int, bool) {
	if !e.Dropped || e.Packet == nil || e.Packet.IPv4 == nil {
		return 0, false
	}
	return flowOfInside(e.Packet.IPv4.Dst.Uint64(), r.in.size.flows)
}

func (r *blastRig) onViolation(v *core.Violation) {
	if !r.viols.add(v.Property) {
		return
	}
	if a, ok := bindingIP(v, "A"); ok {
		if f, ok := flowOfInside(a, r.in.size.flows); ok {
			r.clock.verdictAt(f, r.traced)
		}
	}
}

func (r *blastRig) pass() (passOut, error) {
	in := r.in
	c0, v0, e0 := r.col.Stats(), r.viols.snapshot(), r.sm.Stats().Events
	x0 := r.x.Stats()
	inj := 0
	for i := range in.events {
		e := in.events[i]
		if e.Dropped {
			now := nowNs()
			r.clock.due[in.inject[inj]].Store(now)
			r.clock.published[in.inject[inj]].Store(now)
			inj++
		}
		if r.traced {
			t0 := time.Now()
			r.publish(e)
			r.tr.publish.add(time.Since(t0))
		} else {
			r.publish(e)
		}
	}
	if err := r.settle(); err != nil {
		return passOut{}, err
	}
	c1, v1, x1 := r.col.Stats(), r.viols.snapshot(), r.x.Stats()
	applied := r.sm.Stats().Events - e0
	published := x1.Published - x0.Published
	gap := c1.GapEvents - c0.GapEvents
	marks := r.sm.Ledger().Snapshot()
	marked := markedProps(marks)

	// Every published event is applied exactly once or declared lost by
	// a sequence gap, which must leave a ledger mark: never silent loss.
	if c1.Events-c0.Events+gap != published {
		r.wrongf("collector applied %d + gap %d events, exporter published %d", c1.Events-c0.Events, gap, published)
	}
	if applied != c1.Events-c0.Events {
		r.wrongf("engine applied %d events, collector submitted %d", applied, c1.Events-c0.Events)
	}
	if gap > 0 {
		for _, name := range blastProps {
			if !marked[name] {
				r.wrongf("%d events lost by a sequence gap but %s carries no ledger mark", gap, name)
			}
		}
		if c1.Reconnects == c0.Reconnects && x1.ShedEvents == x0.ShedEvents {
			r.lost += gap
		}
	}
	// On each property the ledger still vouches for, verdicts equal the
	// injected drops, and live state is what set-up left.
	for i, name := range blastProps {
		got := v1[i] - v0[i]
		if !marked[name] && got != uint64(len(in.inject)) {
			r.wrongf("%s: %d verdicts, %d drops injected", name, got, len(in.inject))
		}
	}
	live := r.sm.ActiveInstances()
	if (len(marks) == 0 && live != r.live0) || live > r.live0 {
		r.wrongf("live instances at pass end = %d, set-up left %d", live, r.live0)
	}
	if r.traced {
		r.tr.live = append(r.tr.live, float64(live))
		r.tr.stateBytes = append(r.tr.stateBytes, stateBytes(r.sm.StateReport()))
		r.tr.created = append(r.tr.created, float64(r.sm.Stats().Created))
	}
	out := passOut{ops: published, events: applied, detectUs: r.clock.take(), wrong: r.wrong}
	r.wrong = nil
	return out, nil
}

func (r *blastRig) wrongf(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf("fabric-blast: "+format, args...))
	}
}

func (r *blastRig) resetLayers() {
	r.lost = 0
	if !r.traced {
		return
	}
	r.tr.publish = layerAcc{}
	r.tr.live, r.tr.stateBytes = nil, nil
	r.tr.created = []float64{float64(r.sm.Stats().Created)}
	r.tr.x0 = r.x.Stats()
	r.tr.shard0 = r.sm.ShardStats()
	r.sink.reset()
	r.clock.reset()
}

func (r *blastRig) layers() map[string]float64 {
	x1 := r.x.Stats()
	pub := float64(x1.Published - r.tr.x0.Published)
	var created []float64
	for i := 1; i < len(r.tr.created); i++ {
		created = append(created, r.tr.created[i]-r.tr.created[i-1])
	}
	out := r.clock.layers()
	for k, v := range map[string]float64{
		"core.instances_created":    median(created),
		"core.live_instances":       median(r.tr.live),
		"core.state_bytes":          median(r.tr.stateBytes),
		"core.shard_skew":           shardSkew(r.tr.shard0, r.sm.ShardStats()),
		"exporter.publish_ns":       r.tr.publish.per(),
		"exporter.events_per_batch": pub / float64(max(x1.BatchesSent-r.tr.x0.BatchesSent, 1)),
		"wire.bytes_per_event":      float64(x1.BytesSent-r.tr.x0.BytesSent) / max(pub, 1),
		"collector.submit_ns":       r.sink.perEvent(),
		"collector.lost_events":     float64(r.lost),
	} {
		out[k] = v
	}
	return out
}

// knownFault describes the exporter batch-reorder fault's marks on the
// measured passes, or is empty when it did not strike.
func (r *blastRig) knownFault() string {
	if r.lost == 0 {
		return ""
	}
	return fmt.Sprintf("%d events declared lost by the collector without a reconnect or shed (ledger-marked); "+
		"the exporter counts %d batches acknowledged that it never sent", r.lost, r.route().unsentAcked())
}

func (r *blastRig) close() error {
	if r.x != nil {
		r.x.Close(5 * time.Second)
	}
	if r.col != nil {
		r.col.Close()
	}
	r.sm.Close()
	return nil
}
