package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"switchmon/internal/collector"
	"switchmon/internal/core"
	"switchmon/internal/dsl"
	"switchmon/internal/exporter"
	"switchmon/internal/federation"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// fleet-paced: detection latency, the monitor's product. Several switch
// streams are published on a fixed schedule, well below saturation,
// through one federation.Router over a two-collector fleet (two
// connections, one single-shard engine per collector). A fixed share of
// flows end in an injected drop, a violation; each is timed from the
// moment it was due to its OnViolation. The schedule is an open loop:
// each wake-up publishes everything due by then. The exporters keep
// their default sealing (128-event batches, 5 ms age), so at this rate
// every batch is sealed by age and the seal wait dominates detection.
// An age far above the host's ~1.1 ms timer tick keeps that wait
// independent of how the generator's and the flusher's wake-ups happen
// to line up; a 250 µs age did not, and swung the per-pass p50 between
// 0.4 and 1.2 ms.

type fleetSize struct {
	switches    int           // switch streams (datapath ids) sharing the router
	flows       int           // flows per pass, two events each
	injectEvery int           // one flow in this many ends in a drop
	passDur     time.Duration // schedule length of a pass
	window      time.Duration // property window, event time
	followMax   time.Duration // a flow's second event comes 1ms..followMax after its first
	setupFlows  int           // clean flows pushed through the fleet at set-up
}

var fleetSizes = map[sizeClass]fleetSize{
	full: {switches: 8, flows: 8000, injectEvery: 16, passDur: time.Second,
		window: 200 * time.Millisecond, followMax: 50 * time.Millisecond, setupFlows: 65536},
	tiny: {switches: 4, flows: 64, injectEvery: 4, passDur: 50 * time.Millisecond,
		window: 200 * time.Millisecond, followMax: 10 * time.Millisecond, setupFlows: 64},
}

// The fleet's property is partitionable by datapath id (its identity
// pins switch.id), the precondition for routing by PartitionByDPID.
const fleetProperty = `
property "fleet-local-drop" {
  description "a flow whose SYN a switch forwarded must not be dropped by that switch within the window"

  on egress "fwd" {
    match tcp.syn == 1
    match dropped == 0
    bind $SW = switch.id
    bind $SRC = ip.src
  }

  on egress "dropped" within %s {
    match switch.id == $SW
    match ip.src == $SRC
    match dropped == 1
  }
}
`

type fleetEvent struct {
	due  time.Duration // offset from the pass start
	ev   core.Event
	slot int // flow slot; -1 unless the event is an injected drop
}

type fleetInputs struct {
	size     fleetSize
	prop     *property.Property
	schedule []fleetEvent // one pass, by due time
	injected []bool       // per flow slot
	warmup   []core.Event // clean events pushed through the fleet at set-up
}

func genFleet(seed int64, sc sizeClass) inputs {
	sz := fleetSizes[sc]
	rng := rand.New(rand.NewSource(seed))
	prop, err := dsl.Parse(fmt.Sprintf(fleetProperty, sz.window))
	if err != nil {
		panic(fmt.Sprintf("fleet property: %v", err)) // a constant; a parse error is a bug here
	}
	in := &fleetInputs{size: sz, prop: prop, injected: make([]bool, sz.flows)}
	gap := sz.passDur / time.Duration(sz.flows)
	for f := 0; f < sz.flows; f++ {
		a, b := flowAddrs(f)
		sw := uint64(1 + rng.Intn(sz.switches))
		sport := uint16(1024 + rng.Intn(60000))
		syn := packet.NewTCP(macInside, macOutside, a, b, sport, 80, packet.FlagSYN, nil)
		start := time.Duration(f)*gap + time.Duration(rng.Int63n(int64(gap)))
		in.schedule = append(in.schedule, fleetEvent{due: start, slot: -1,
			ev: core.Event{Kind: core.KindEgress, SwitchID: sw, Packet: syn, InPort: 1, OutPort: 2}})
		follow := start + time.Millisecond + time.Duration(rng.Int63n(int64(sz.followMax-time.Millisecond)))
		if rng.Intn(sz.injectEvery) == 0 {
			in.injected[f] = true
			in.schedule = append(in.schedule, fleetEvent{due: follow, slot: f,
				ev: core.Event{Kind: core.KindEgress, SwitchID: sw, Packet: syn, InPort: 1, Dropped: true}})
		} else {
			ack := packet.NewTCP(macInside, macOutside, a, b, sport, 80, packet.FlagACK, nil)
			in.schedule = append(in.schedule, fleetEvent{due: follow, slot: -1,
				ev: core.Event{Kind: core.KindEgress, SwitchID: sw, Packet: ack, InPort: 1, OutPort: 2}})
		}
	}
	sort.SliceStable(in.schedule, func(i, j int) bool { return in.schedule[i].due < in.schedule[j].due })
	for i := 0; i < sz.setupFlows; i++ {
		in.warmup = append(in.warmup, in.schedule[i%len(in.schedule)].ev)
		in.warmup[i].Dropped = false
	}
	return in
}

type fleetRig struct {
	in      *fleetInputs
	traced  bool
	sms     [2]*core.ShardedMonitor
	cols    [2]*collector.Collector
	members [2]string // collector addresses, as the router names its routes
	sinks   [2]*timedSink
	router  *federation.Router
	clock   *verdictClock
	hits    []atomic.Int32 // verdicts per flow slot this pass
	stray   atomic.Int32   // verdicts no flow slot accounts for
	seq     uint64
	base    time.Time // event time of the next pass's start
	late    []float64
	wrong   []string

	tr struct {
		publish                   layerAcc
		created, live, stateBytes []float64
		route0                    map[string]exporter.Stats
		ev0                       [2]uint64
	}
}

func (in *fleetInputs) setup(traced bool) (rig, error) {
	sz := in.size
	r := &fleetRig{in: in, traced: traced, clock: newVerdictClock(sz.flows),
		hits: make([]atomic.Int32, sz.flows), base: sim.Epoch}
	var members []federation.Member
	for i := range r.sms {
		r.sms[i] = core.NewShardedMonitor(1, core.Config{Provenance: core.ProvLimited, OnViolation: r.onViolation})
		if err := r.sms[i].AddProperty(in.prop); err != nil {
			r.close()
			return nil, fmt.Errorf("install: %w", err)
		}
		var sink collector.Sink = r.sms[i]
		if traced {
			r.sinks[i] = &timedSink{ShardedMonitor: r.sms[i], slotOf: r.slotOf, clock: r.clock}
			sink = r.sinks[i]
		}
		col, err := collector.New(collector.Config{Addr: "127.0.0.1:0"}, sink)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("collector: %w", err)
		}
		col.Serve()
		r.cols[i] = col
		r.members[i] = col.Addr().String()
		members = append(members, federation.Member{Addr: r.members[i]})
	}
	if err := core.ValidateDPIDPartition([]*property.Property{in.prop}); err != nil {
		r.close()
		return nil, err
	}
	router, err := federation.NewRouter(federation.Config{Members: members, DPID: 100,
		Exporter: exporter.Config{}})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	router.Start()
	r.router = router
	for _, e := range in.warmup {
		r.publish(e, r.base)
	}
	if err := r.settle(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *fleetRig) publish(e core.Event, at time.Time) {
	r.seq++
	e.PacketID = core.PacketID(r.seq)
	e.Time = at
	r.router.Publish(e)
}

// settle drains the fleet, then advances both engines past the last
// window so every clean flow's instance has expired and the next pass
// starts from empty state.
func (r *fleetRig) settle() error {
	if err := r.drain(); err != nil {
		return err
	}
	r.expire()
	return nil
}

func (r *fleetRig) drain() error {
	routes := func() []route {
		xs := r.router.RouteStats()
		var out []route
		for i, col := range r.cols {
			out = append(out, route{X: xs[r.members[i]], C: col.Stats()})
		}
		return out
	}
	if err := quiesce(r.router.Flush, routes); err != nil {
		return fmt.Errorf("%w (ledger %+v %+v %+v)", err, r.router.Ledger(), r.sms[0].Ledger().Snapshot(), r.sms[1].Ledger().Snapshot())
	}
	return nil
}

func (r *fleetRig) expire() {
	r.base = r.base.Add(r.in.size.passDur + 2*r.in.size.window)
	for _, sm := range r.sms {
		sm.AdvanceTo(r.base)
	}
	r.base = r.base.Add(time.Second)
}

func (r *fleetRig) slotOf(e *core.Event) (int, bool) {
	if !e.Dropped || e.Packet == nil || e.Packet.IPv4 == nil {
		return 0, false
	}
	return flowOfInside(e.Packet.IPv4.Src.Uint64(), r.in.size.flows)
}

func (r *fleetRig) onViolation(v *core.Violation) {
	src, ok := bindingIP(v, "SRC")
	f, inRange := flowOfInside(src, r.in.size.flows)
	if !ok || !inRange || v.Property != r.in.prop.Name {
		r.stray.Add(1)
		return
	}
	r.hits[f].Add(1)
	r.clock.verdictAt(f, r.traced)
}

func (r *fleetRig) live() int { return r.sms[0].ActiveInstances() + r.sms[1].ActiveInstances() }

func (r *fleetRig) engineEvents() [2]uint64 {
	return [2]uint64{r.sms[0].Stats().Events, r.sms[1].Stats().Events}
}

func (r *fleetRig) pass() (passOut, error) {
	in := r.in
	for i := range r.hits {
		r.hits[i].Store(0)
	}
	r.stray.Store(0)
	ev0 := r.engineEvents()
	pub0 := r.router.Stats().Published
	var created0 uint64
	if r.traced {
		created0 = r.sms[0].Stats().Created + r.sms[1].Stats().Created
	}
	base := r.base
	start := time.Now()
	startNs := nowNs()
	for i := 0; i < len(in.schedule); {
		wake := time.Since(start)
		for ; i < len(in.schedule) && in.schedule[i].due <= time.Since(start); i++ {
			fe := &in.schedule[i]
			r.late = append(r.late, float64(max(wake-fe.due, 0))/1e3)
			if fe.slot >= 0 {
				// A violation is timed from its due time, or from the
				// wake-up when the timer woke the generator after it: that
				// lateness is the host timer's, not the program's, and is
				// reported apart (generator.late_us). A Publish that blocks
				// still counts in full, since events falling due while it
				// blocks keep their due times.
				r.clock.due[fe.slot].Store(startNs + int64(max(fe.due, wake)))
				r.clock.published[fe.slot].Store(nowNs())
			}
			if r.traced {
				t0 := time.Now()
				r.publish(fe.ev, base.Add(fe.due))
				r.tr.publish.add(time.Since(t0))
			} else {
				r.publish(fe.ev, base.Add(fe.due))
			}
		}
		if i < len(in.schedule) {
			time.Sleep(in.schedule[i].due - time.Since(start))
		}
	}
	if err := r.drain(); err != nil {
		return passOut{}, err
	}
	if r.traced {
		r.tr.live = append(r.tr.live, float64(r.live()))
		r.tr.stateBytes = append(r.tr.stateBytes, stateBytes(r.sms[0].StateReport())+stateBytes(r.sms[1].StateReport()))
	}
	r.expire()
	ev1 := r.engineEvents()
	applied := ev1[0] - ev0[0] + ev1[1] - ev0[1]
	published := r.router.Stats().Published - pub0

	if applied != published {
		r.wrongf("engines applied %d events, router published %d (ledger %+v)", applied, published, r.router.Ledger())
	}
	for f := range r.hits {
		got, want := r.hits[f].Load(), int32(0)
		if in.injected[f] {
			want = 1
		}
		if got != want {
			r.wrongf("flow %d: %d verdicts, want %d", f, got, want)
		}
	}
	if n := r.stray.Load(); n != 0 {
		r.wrongf("%d verdicts for no injected flow", n)
	}
	if live := r.live(); live != 0 {
		r.wrongf("%d instances live after every window lapsed", live)
	}
	if r.traced {
		r.tr.created = append(r.tr.created, float64(r.sms[0].Stats().Created+r.sms[1].Stats().Created-created0))
	}
	out := passOut{ops: published, events: applied, detectUs: r.clock.take(), wrong: r.wrong}
	r.wrong = nil
	return out, nil
}

func (r *fleetRig) takeLate() []float64 {
	l := r.late
	r.late = nil
	return l
}

func (r *fleetRig) wrongf(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf("fleet-paced: "+format, args...))
	}
}

func (r *fleetRig) resetLayers() {
	r.late = nil
	if !r.traced {
		return
	}
	r.tr.publish = layerAcc{}
	r.tr.created, r.tr.live, r.tr.stateBytes = nil, nil, nil
	r.tr.route0 = r.router.RouteStats()
	r.tr.ev0 = r.engineEvents()
	for _, s := range r.sinks {
		s.reset()
	}
	r.clock.reset()
}

func (r *fleetRig) layers() map[string]float64 {
	var pub, batches, bytes uint64
	for addr, st := range r.router.RouteStats() {
		st0 := r.tr.route0[addr]
		pub += st.Published - st0.Published
		batches += st.BatchesSent - st0.BatchesSent
		bytes += st.BytesSent - st0.BytesSent
	}
	ev1 := r.engineEvents()
	var submitNs, submitEv int64
	for _, s := range r.sinks {
		submitNs += s.ns.Load()
		submitEv += s.events.Load()
	}
	before := []core.Stats{{Events: r.tr.ev0[0]}, {Events: r.tr.ev0[1]}}
	after := []core.Stats{{Events: ev1[0]}, {Events: ev1[1]}}
	out := r.clock.layers()
	for k, v := range map[string]float64{
		"core.instances_created":    median(r.tr.created),
		"core.live_instances":       median(r.tr.live),
		"core.state_bytes":          median(r.tr.stateBytes),
		"core.shard_skew":           shardSkew(before, after),
		"exporter.events_per_batch": float64(pub) / float64(max(batches, 1)),
		"wire.bytes_per_event":      float64(bytes) / float64(max(pub, 1)),
		"collector.submit_ns":       float64(submitNs) / float64(max(submitEv, 1)),
		"federation.publish_ns":     r.tr.publish.per(),
	} {
		out[k] = v
	}
	return out
}

func (r *fleetRig) close() error {
	if r.router != nil {
		r.router.Close(5 * time.Second)
	}
	for i := range r.cols {
		if r.cols[i] != nil {
			r.cols[i].Close()
		}
		if r.sms[i] != nil {
			r.sms[i].Close()
		}
	}
	return nil
}
