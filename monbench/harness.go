package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// inputs are a workload's generated inputs; setup builds the program
// from them. setup runs several times per run and is what setup_s times.
type inputs interface {
	setup(traced bool) (rig, error)
}

// rig is one built instance of the program under a workload.
type rig interface {
	// pass feeds the workload's fixed pass of inputs, waits until the
	// program has finished with them and checks its outputs.
	pass() (passOut, error)
	// layers returns the per-layer figures of a traced rig over the
	// measured passes.
	layers() map[string]float64
	// resetLayers starts the per-layer accounting afresh (after warm-up).
	resetLayers()
	close() error
}

// passOut is what one pass did. An error from pass means the program
// could not be driven at all (no result is printed); wrong lists oracle
// failures (the result is printed with correct=false).
type passOut struct {
	ops      uint64    // operations attempted: frames or published events
	events   uint64    // events the monitoring engine applied
	detectUs []float64 // detection latency of each verdict, µs
	wrong    []string
}

// passStat is the harness's measurement of one pass. It keeps only
// percentiles of the pass's samples, so that heap_mb measures the
// program and not the benchmark's own sample arrays.
type passStat struct {
	out           passOut
	elapsed       time.Duration // by the workload's clock: thread CPU time for oneThread workloads
	cpu           time.Duration
	alloc         uint64
	gcs           uint32
	samples       int     // detection latency samples
	p50, p90, p99 float64 // detection latency percentiles, µs
	lateP90       float64 // how late the generator woke, µs (scheduled workloads)
}

func (ps *passStat) rate() float64 { return float64(ps.out.ops) / ps.elapsed.Seconds() }

func (ps *passStat) cpuPerEvent() float64 {
	return float64(ps.cpu.Nanoseconds()) / float64(max(ps.out.events, 1))
}

const (
	setupRepeats = 5
	minPasses    = 5
)

// run sets the program up several times, discards one warm-up pass,
// then measures whole passes until seconds have elapsed.
func run(w workload, seed int64, seconds int, traced bool, size sizeClass) (result, []string, error) {
	in := w.gen(seed, size)
	clock := wallClock
	if w.oneThread {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		clock = threadCPU
	}
	repeats := setupRepeats
	if size == tiny {
		repeats = 2
	}
	var setupS []float64
	var r rig
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := clock()
		built, err := in.setup(traced)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, (clock() - t0).Seconds())
		if i < repeats-1 {
			if err := built.close(); err != nil {
				return result{}, nil, fmt.Errorf("close after setup: %w", err)
			}
			continue
		}
		r = built
	}
	defer r.close()

	warm, err := r.pass()
	if err != nil {
		return result{}, nil, fmt.Errorf("warm-up pass: %w", err)
	}
	wrong := warm.wrong
	r.resetLayers()

	var passes []passStat
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		ps, err := measurePass(r, clock)
		if err != nil {
			return result{}, nil, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		wrong = append(wrong, ps.out.wrong...)
		passes = append(passes, ps)
		fmt.Fprintf(os.Stderr, "pass %d: time=%v rate=%.0f cpu/ev=%.0f gcs=%d p50=%.0f p90=%.0f\n",
			len(passes), ps.elapsed, ps.rate(), ps.cpuPerEvent(), ps.gcs, ps.p50, ps.p90)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	res := result{Correct: len(wrong) == 0, Metrics: map[string]metric{}}
	var rates, cpuPer, allocPer, gcs, p50s, p90s, p99s, late []float64
	samples := 0
	for _, ps := range passes {
		res.Attempted += ps.out.ops
		rates = append(rates, ps.rate())
		cpuPer = append(cpuPer, ps.cpuPerEvent())
		allocPer = append(allocPer, float64(ps.alloc)/float64(max(ps.out.events, 1)))
		gcs = append(gcs, float64(ps.gcs))
		p50s = append(p50s, ps.p50)
		p90s = append(p90s, ps.p90)
		p99s = append(p99s, ps.p99)
		late = append(late, ps.lateP90)
		samples += ps.samples
	}
	e2e := map[string]float64{
		"setup_s":          median(setupS),
		"ops_per_s":        median(rates),
		"cpu_ns_per_event": median(cpuPer),
		"heap_mb":          heapMB,
		"detect_p50_us":    median(p50s),
		"detect_p90_us":    median(p90s),
	}
	report := []string{fmt.Sprintf(
		"%s: passes=%d ops/pass=%d setups_s=%s ops_per_s[min,max]=[%.0f,%.0f] detect n=%d median of per-pass p50=%.1fus p90=%.1fus p99=%.1fus traced=%v",
		w.name, len(passes), passes[0].out.ops, fmtList(setupS), minOf(rates), maxOf(rates),
		samples, median(p50s), median(p90s), median(p99s), traced)}
	if kf, ok := r.(interface{ knownFault() string }); ok && kf.knownFault() != "" {
		report = append(report, fmt.Sprintf("%s: KNOWN FAULT: %s", w.name, kf.knownFault()))
	}
	for _, msg := range wrong {
		report = append(report, "WRONG: "+msg)
	}

	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, report, nil
	}
	layer := r.layers()
	layer["generator.late_us"] = median(late)
	layer["runtime.alloc_b_per_event"] = median(allocPer)
	layer["runtime.gc_cycles"] = median(gcs)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	report = append(report, fmt.Sprintf("%s: traced ops_per_s=%.0f cpu_ns_per_event=%.1f", w.name, e2e["ops_per_s"], e2e["cpu_ns_per_event"]))
	return res, report, nil
}

// lateSource is implemented by rigs whose generator runs on a schedule.
type lateSource interface{ takeLate() []float64 }

func measurePass(r rig, clock func() time.Duration) (passStat, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := clock()
	out, err := r.pass()
	elapsed := clock() - t0
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	ps := passStat{out: out, elapsed: elapsed, cpu: c1 - c0,
		alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC}
	if ls, ok := r.(lateSource); ok {
		late := ls.takeLate()
		sort.Float64s(late)
		ps.lateP90 = percentile(late, 0.9)
	}
	d := ps.out.detectUs
	sort.Float64s(d)
	ps.samples, ps.p50, ps.p90, ps.p99 = len(d), percentile(d, 0.5), percentile(d, 0.9), percentile(d, 0.99)
	ps.out.detectUs = nil
	return ps, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time, to the nanosecond.
// getrusage(RUSAGE_THREAD) is not used: the kernel keeps its user and
// system split monotonic by holding both back at times, so a short
// stretch of work can read as zero.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func wallClock() time.Duration { return time.Since(benchStart) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s + "]"
}

// layerAcc accumulates one layer's busy time and call count.
type layerAcc struct {
	ns    int64
	calls int64
}

func (a *layerAcc) add(d time.Duration) { a.ns += int64(d); a.calls++ }

// per returns the mean time per call in ns.
func (a *layerAcc) per() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls)
}
