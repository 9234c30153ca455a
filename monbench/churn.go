package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"switchmon/internal/apps"
	"switchmon/internal/core"
	"switchmon/internal/dataplane"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// onswitch-churn: the paper's deployment, the monitor inside the switch.
// Pre-encoded frames are decoded, injected into a switch whose
// controller-resident stateful firewall drops every Nth admissible
// return packet (the injected fault), and observed by an inline
// core.Monitor running the firewall catalogue properties. Flows open,
// exchange, then close or go idle past the window while a virtual clock
// advances per frame, so monitor state is written (instances created,
// refreshed, discharged, expired) on nearly every frame.

type churnSize struct {
	flows        int           // flows per pass
	standing     int           // connections opened at set-up and never closed
	maxExchanges int           // return/outgoing pairs per flow, 1..max
	dropEvery    int           // firewall fault: drop every Nth admissible return
	window       time.Duration // firewall idle timeout = property window
	flowGap      time.Duration // virtual time between flow starts
	pktGap       time.Duration // virtual time between a flow's packets
}

var churnSizes = map[sizeClass]churnSize{
	full: {flows: 1024, standing: 4096, maxExchanges: 6, dropEvery: 7,
		window: 100 * time.Millisecond, flowGap: 50 * time.Microsecond, pktGap: time.Millisecond},
	tiny: {flows: 48, standing: 16, maxExchanges: 4, dropEvery: 3,
		window: 100 * time.Millisecond, flowGap: time.Millisecond, pktGap: time.Millisecond},
}

// churnProps are the catalogue properties the monitor runs, in the bit
// order of the oracle's masks.
var churnProps = []string{"firewall-basic", "firewall-timeout", "firewall-until-close"}

const (
	bitBasic   = 1 << 0
	bitTimeout = 1 << 1
	bitUntil   = 1 << 2
)

// Frame kinds. Outgoing kinds enter on the internal port.
const (
	kSyn   = iota // A→B SYN, opens the flow
	kOut          // A→B ACK, refreshes the pinhole
	kRet          // B→A ACK while open: admissible, dropped by the fault every Nth
	kFin          // A→B FIN: closes the pinhole
	kLate         // B→A after the close: correctly dropped, violates firewall-timeout
	kStray        // B→A after the window: correctly dropped, violates only firewall-basic
)

const (
	portInternal dataplane.PortNo = 1
	portExternal dataplane.PortNo = 2
)

type churnFrame struct {
	at   time.Duration // virtual offset within the pass
	kind uint8
	data int32 // index into churnInputs.data
}

type churnInputs struct {
	size     churnSize
	data     [][]byte     // encoded frames: 4 per flow (syn, out, ret, fin), then standing SYNs
	frames   []churnFrame // one pass, in virtual-time order
	standing [][]byte
	span     time.Duration // virtual length of a pass, drain included
}

func flowAddrs(f int) (a, b packet.IPv4) {
	return packet.IPv4FromUint32(0x0a000000 | uint32(f+1)), packet.IPv4FromUint32(0xc6120000 | uint32(f+1))
}

var (
	macInside  = packet.MustMAC("02:00:00:00:01:01")
	macOutside = packet.MustMAC("02:00:00:00:02:02")
)

func mustEncode(p *packet.Packet) []byte {
	b, err := p.Encode()
	if err != nil {
		panic(fmt.Sprintf("encode generated frame: %v", err)) // generated frames are well-formed
	}
	return b
}

func genChurn(seed int64, sc sizeClass) inputs {
	sz := churnSizes[sc]
	rng := rand.New(rand.NewSource(seed))
	in := &churnInputs{size: sz}
	var last time.Duration
	for f := 0; f < sz.flows; f++ {
		a, b := flowAddrs(f)
		sport := uint16(1024 + rng.Intn(60000))
		dport := []uint16{22, 80, 443, 8080}[rng.Intn(4)]
		base := int32(len(in.data))
		in.data = append(in.data,
			mustEncode(packet.NewTCP(macInside, macOutside, a, b, sport, dport, packet.FlagSYN, nil)),
			mustEncode(packet.NewTCP(macInside, macOutside, a, b, sport, dport, packet.FlagACK, nil)),
			mustEncode(packet.NewTCP(macOutside, macInside, b, a, dport, sport, packet.FlagACK, nil)),
			mustEncode(packet.NewTCP(macInside, macOutside, a, b, sport, dport, packet.FlagFIN|packet.FlagACK, nil)))
		t := time.Duration(f)*sz.flowGap + time.Duration(rng.Int63n(int64(sz.flowGap)))
		add := func(kind uint8, idx int32) {
			in.frames = append(in.frames, churnFrame{at: t, kind: kind, data: base + idx})
			last = max(last, t)
			t += sz.pktGap/2 + time.Duration(rng.Int63n(int64(sz.pktGap)))
		}
		add(kSyn, 0)
		for k := 1 + rng.Intn(sz.maxExchanges); k > 0; k-- {
			add(kRet, 2)
			add(kOut, 1)
		}
		switch rng.Intn(4) {
		case 0: // close
			add(kFin, 3)
		case 1: // close, then a late return
			add(kFin, 3)
			add(kLate, 2)
		case 2: // go idle until the window lapses
		case 3: // go idle, then a stray return after the window
			t += sz.window + sz.window/2
			add(kStray, 2)
		}
	}
	sort.SliceStable(in.frames, func(i, j int) bool { return in.frames[i].at < in.frames[j].at })
	in.span = last + 2*sz.window
	for s := 0; s < sz.standing; s++ {
		a, b := flowAddrs(sz.flows + s)
		in.standing = append(in.standing,
			mustEncode(packet.NewTCP(macInside, macOutside, a, b, 40000, 443, packet.FlagSYN, nil)))
	}
	return in
}

// expect is the oracle: for each frame of a pass, the set of properties
// that frame must make fire, given the firewall's admissible-return
// counter at the start of the pass. It models the fault (every Nth
// admissible return dropped) and the properties' meaning, not the
// engine: a wrongful drop violates all three; a drop after the close
// violates the windowed property but not the one discharged by the
// FIN; a drop after the window violates only the windowless property.
func (in *churnInputs) expect(counter int) (masks []uint8, next int) {
	masks = make([]uint8, len(in.frames))
	for i, f := range in.frames {
		switch f.kind {
		case kRet:
			counter++
			if in.size.dropEvery > 0 && counter%in.size.dropEvery == 0 {
				masks[i] = bitBasic | bitTimeout | bitUntil
			}
		case kLate:
			masks[i] = bitBasic | bitTimeout
		case kStray:
			masks[i] = bitBasic
		}
	}
	return masks, counter
}

type churnRig struct {
	in      *churnInputs
	traced  bool
	sched   *sim.Scheduler
	sw      *dataplane.Switch
	mon     *core.Monitor
	propBit map[string]uint8
	base    time.Duration // virtual offset of the next pass
	counter int           // firewall admissible-return count so far
	passes  int

	// per-frame oracle state
	cur, fired uint8
	t0         time.Time
	detect     []float64
	wrong      []string

	live0 int // live instances at the end of the first measured pass
	tr    churnTrace
}

// churnTrace accumulates the traced run's per-layer times. PacketIn and
// HandleEvent nest inside Inject, and HandleEvent inside PacketIn, so
// self times subtract the nested spans.
type churnTrace struct {
	decode, inject, packetIn, handle layerAcc
	handleInPacketIn                 int64
	inPacketIn                       bool
	created, live, stateBytes        []float64
}

func (in *churnInputs) setup(traced bool) (rig, error) {
	r := &churnRig{in: in, traced: traced, sched: sim.NewScheduler(), propBit: map[string]uint8{}}
	r.sw = dataplane.New("fw", r.sched, 1)
	r.sw.AddPort(portInternal, nil)
	r.sw.AddPort(portExternal, nil)
	fw := apps.NewFirewall(r.sw, portInternal, portExternal, in.size.window,
		apps.FirewallFaults{DropValidReturnEvery: in.size.dropEvery})
	r.mon = core.NewMonitor(r.sched, core.Config{OnViolation: r.onViolation})
	pm := property.DefaultParams()
	pm.FirewallWindow = in.size.window
	for i, name := range churnProps {
		if err := r.mon.AddProperty(property.CatalogByName(pm, name)); err != nil {
			return nil, fmt.Errorf("install %s: %w", name, err)
		}
		r.propBit[name] = 1 << i
	}
	if traced {
		r.sw.SetController(tracedController{fw, r}, dataplane.MissController)
		r.sw.Observe(r.tracedHandle)
	} else {
		r.sw.Observe(r.mon.HandleEvent)
	}
	for i, data := range in.standing {
		r.sched.RunUntil(sim.Epoch.Add(time.Duration(i) * time.Microsecond))
		p, err := packet.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("decode standing frame %d: %w", i, err)
		}
		r.sw.Inject(portInternal, p)
	}
	r.base = time.Duration(len(in.standing))*time.Microsecond + in.size.window
	return r, nil
}

func (r *churnRig) onViolation(v *core.Violation) {
	bit := r.propBit[v.Property]
	if r.cur&bit == 0 || r.fired&bit != 0 {
		r.wrongf("unexpected %s verdict: %s", v.Property, v.Trigger)
	}
	r.fired |= bit
	if r.cur != 0 {
		r.detect = append(r.detect, float64(time.Since(r.t0).Nanoseconds())/1e3)
	}
}

func (r *churnRig) wrongf(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf("onswitch-churn: "+format, args...))
	}
}

func (r *churnRig) pass() (passOut, error) {
	in := r.in
	masks, next := in.expect(r.counter)
	r.counter = next
	ev0 := r.mon.Stats().Events
	start := sim.Epoch.Add(r.base)
	for i, f := range in.frames {
		if at := start.Add(f.at); at.After(r.sched.Now()) {
			r.sched.RunUntil(at)
		}
		r.cur, r.fired = masks[i], 0
		if r.cur != 0 {
			r.t0 = time.Now()
		}
		port := portInternal
		if f.kind == kRet || f.kind == kLate || f.kind == kStray {
			port = portExternal
		}
		if r.traced {
			r.tracedInject(port, in.data[f.data])
		} else {
			p, err := packet.Decode(in.data[f.data])
			if err != nil {
				return passOut{}, fmt.Errorf("decode frame %d: %w", i, err)
			}
			r.sw.Inject(port, p)
		}
		if r.fired != r.cur {
			r.wrongf("frame %d (kind %d) fired %03b, want %03b", i, f.kind, r.fired, r.cur)
		}
	}
	r.cur = 0
	live := r.mon.ActiveInstances()
	if r.traced {
		r.tr.live = append(r.tr.live, float64(live))
		r.tr.stateBytes = append(r.tr.stateBytes, stateBytes(r.mon.StateReport()))
	}
	// Live state at the same point of every pass must not drift. The
	// warm-up pass starts from set-up's state, so compare from the first
	// measured pass on.
	r.passes++
	switch {
	case r.passes == 2:
		r.live0 = live
	case r.passes > 2 && live != r.live0:
		r.wrongf("live instances at pass end = %d, want %d as in the earlier passes", live, r.live0)
	}
	r.sched.RunUntil(start.Add(in.span))
	r.base += in.span
	st := r.mon.Stats()
	if r.traced && r.passes > 1 {
		r.tr.created = append(r.tr.created, float64(st.Created))
	}
	out := passOut{ops: uint64(len(in.frames)), events: st.Events - ev0, detectUs: r.detect, wrong: r.wrong}
	r.detect, r.wrong = nil, nil
	return out, nil
}

func (r *churnRig) tracedInject(port dataplane.PortNo, data []byte) {
	t0 := time.Now()
	p, err := packet.Decode(data)
	t1 := time.Now()
	r.tr.decode.add(t1.Sub(t0))
	if err != nil {
		r.wrongf("decode: %v", err)
		return
	}
	r.sw.Inject(port, p)
	r.tr.inject.add(time.Since(t1))
}

func (r *churnRig) tracedHandle(e core.Event) {
	t0 := time.Now()
	r.mon.HandleEvent(e)
	d := time.Since(t0)
	r.tr.handle.add(d)
	if r.tr.inPacketIn {
		r.tr.handleInPacketIn += int64(d)
	}
}

// tracedController times the firewall's PacketIn.
type tracedController struct {
	fw *apps.Firewall
	r  *churnRig
}

func (c tracedController) PacketIn(sw *dataplane.Switch, inPort dataplane.PortNo, pid core.PacketID, p *packet.Packet) {
	c.r.tr.inPacketIn = true
	t0 := time.Now()
	c.fw.PacketIn(sw, inPort, pid, p)
	c.r.tr.packetIn.add(time.Since(t0))
	c.r.tr.inPacketIn = false
}

func (r *churnRig) resetLayers() {
	created := r.mon.Stats().Created
	r.tr = churnTrace{created: []float64{float64(created)}}
}

func (r *churnRig) layers() map[string]float64 {
	t := &r.tr
	var perPass []float64
	for i := 1; i < len(t.created); i++ {
		perPass = append(perPass, t.created[i]-t.created[i-1])
	}
	handleOutside := t.handle.ns - t.handleInPacketIn
	frames := float64(max(t.inject.calls, 1))
	return map[string]float64{
		"packet.decode_ns":         t.decode.per(),
		"dataplane.inject_self_ns": float64(t.inject.ns-t.packetIn.ns-handleOutside) / frames,
		"apps.packetin_self_ns":    float64(t.packetIn.ns-t.handleInPacketIn) / float64(max(t.packetIn.calls, 1)),
		"core.handle_ns":           t.handle.per(),
		"core.instances_created":   median(perPass),
		"core.live_instances":      median(t.live),
		"core.state_bytes":         median(t.stateBytes),
	}
}

func (r *churnRig) close() error { return nil }
