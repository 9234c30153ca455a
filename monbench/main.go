// Command monbench is the repository benchmark. It drives the monitor
// only through the packages' public functions, on inputs generated from
// a seed, and prints one JSON result line:
//
//	monbench --workload onswitch-churn --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the calls into each layer are timed from outside and the result holds
// the per-layer metrics instead. See README.md for the workloads, the
// metrics and the oracles that decide "correct".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; TestMetricListsMatchBenchmarkJSON keeps them
// in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ns_per_event", "ns"},
	{"heap_mb", "MiB"},
	{"detect_p50_us", "us"},
	{"detect_p90_us", "us"},
}

var perLayer = []metricDef{
	{"packet.decode_ns", "ns"},
	{"dataplane.inject_self_ns", "ns"},
	{"apps.packetin_self_ns", "ns"},
	{"core.handle_ns", "ns"},
	{"core.instances_created", "count"},
	{"core.live_instances", "count"},
	{"core.state_bytes", "B"},
	{"core.shard_skew", "ratio"},
	{"exporter.publish_ns", "ns"},
	{"exporter.events_per_batch", "count"},
	{"wire.bytes_per_event", "B"},
	{"collector.submit_ns", "ns"},
	{"collector.lost_events", "count"},
	{"federation.publish_ns", "ns"},
	{"fabric.transit_us", "us"},
	{"exporter.to_sink_us", "us"},
	{"core.verdict_us", "us"},
	{"generator.late_us", "us"},
	{"runtime.alloc_b_per_event", "B"},
	{"runtime.gc_cycles", "count"},
}

// workload builds a workload's inputs from a seed. Generation is the
// benchmark's own work and is not timed; building the program from the
// inputs is set-up and is. BENCHMARK.json says why each workload exists.
type workload struct {
	name string
	gen  func(seed int64, size sizeClass) inputs
	// oneThread marks a workload whose set-up and passes run entirely on
	// the calling goroutine. Its run is locked to one OS thread and timed
	// on that thread's CPU time: on a dedicated core that equals wall
	// time, and on a shared host it leaves out the time the hypervisor
	// steals from the VM, which swung wall-clock rates by 40 % between
	// minutes on the 2-vCPU reference host.
	oneThread bool
}

// sizeClass selects full-size inputs or the tiny ones the tests use.
type sizeClass int

const (
	full sizeClass = iota
	tiny
)

var workloads = []workload{
	{"onswitch-churn", genChurn, true},
	{"fabric-blast", genBlast, false},
	{"fleet-paced", genFleet, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wname := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*wname)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "monbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// A hang in the program (or in a quiesce wait) must not outlive the
	// run's time budget: give up and print no result.
	budget := time.Duration(*seconds)*time.Second + 150*time.Second
	time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "monbench: %s did not finish within %v\n", w.name, budget)
		os.Exit(3)
	})

	env := stamp()
	fmt.Println(env)
	fmt.Fprintln(os.Stderr, env)

	res, report, err := run(w, *seed, *seconds, *traceFlag == 1, full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "monbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, line := range report {
		fmt.Fprintln(os.Stderr, line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "monbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// stamp describes the host the figures come from.
func stamp() string {
	commit := os.Getenv("MONBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s timer_tick_us=%.1f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit, timerTickUs())
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

// timerTickUs is the median wall time of a 100µs sleep: the granularity
// an open-loop generator and the exporter's age-seal actually get.
func timerTickUs() float64 {
	var d []float64
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		d = append(d, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(d)
	return d[len(d)/2]
}
