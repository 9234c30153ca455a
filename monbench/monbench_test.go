package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The benchmark's own tests: its oracles at a tiny size. Run with
//
//	cd monbench && go test .

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s/%s here, %s/%s in BENCHMARK.json", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, workloads[i].name, w.Name)
		}
	}
}

// Every workload runs to its end at a tiny size, its oracle passes and
// it reports every metric of its mode, end-to-end ones never zero.
func TestWorkloadsCorrectAtTinySize(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, report, err := run(w, 7, 1, traced, tiny)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, strings.Join(report, "\n"))
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q", w.name, traced, m.name, got.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", w.name, m.name, got.Value)
				}
			}
		}
	}
}

// buildTiny generates tiny inputs for w and builds an untraced rig.
func buildTiny(t *testing.T, gen func(int64, sizeClass) inputs) (inputs, rig) {
	t.Helper()
	in := gen(3, tiny)
	r, err := in.setup(false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.close() })
	return in, r
}

func passWrong(t *testing.T, r rig) []string {
	t.Helper()
	out, err := r.pass()
	if err != nil {
		t.Fatal(err)
	}
	return out.wrong
}

// The onswitch oracle models the firewall's fault independently of the
// program: when the model and the firewall disagree on which returns
// are dropped, the pass is wrong.
func TestChurnOracleCatchesMismatchedFault(t *testing.T) {
	in, r := buildTiny(t, genChurn)
	if w := passWrong(t, r); len(w) != 0 {
		t.Fatalf("clean pass reported wrong: %v", w)
	}
	in.(*churnInputs).size.dropEvery++ // the firewall still drops every 3rd
	if w := passWrong(t, r); len(w) == 0 {
		t.Fatal("oracle accepted verdicts from a fault it did not model")
	}
}

// A drop the blast generator claims to inject but does not send must
// show up as a missing verdict.
func TestBlastOracleCatchesMissingVerdict(t *testing.T) {
	in, r := buildTiny(t, genBlast)
	bi := in.(*blastInputs)
	for i := range bi.events {
		if bi.events[i].Dropped {
			bi.events[i].Dropped = false
			break
		}
	}
	if w := passWrong(t, r); len(w) == 0 {
		t.Fatal("oracle accepted a pass with one verdict missing")
	}
}

// A clean flow the oracle believes injected, or the reverse, fails the
// fleet's one-verdict-per-injection check.
func TestFleetOracleCatchesWrongAttribution(t *testing.T) {
	in, r := buildTiny(t, genFleet)
	if w := passWrong(t, r); len(w) != 0 {
		t.Fatalf("clean pass reported wrong: %v", w)
	}
	fi := in.(*fleetInputs)
	for f := range fi.injected {
		if !fi.injected[f] {
			fi.injected[f] = true
			break
		}
	}
	if w := passWrong(t, r); len(w) == 0 {
		t.Fatal("oracle accepted a flow without its verdict")
	}
}
