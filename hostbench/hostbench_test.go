package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// smallUnits sizes each workload so the whole suite runs in seconds.
var smallUnits = map[string]int{"web": 12, "bulk-disk": 4, "fleet-churn": 1500, "fuzz-exec": 12}

func runSmall(t *testing.T, w benchWorkload, seed int64, tr *tracer) outcome {
	t.Helper()
	p, err := w.setup(seed, smallUnits[w.name])
	if err != nil {
		t.Fatalf("%s seed %d: set-up: %v", w.name, seed, err)
	}
	defer p.close()
	o := p.run(tr)
	for _, c := range o.checks {
		t.Errorf("%s seed %d: %s", w.name, seed, c)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Errorf("%s seed %d: %d attempted, %d failed", w.name, seed, o.attempted, o.failed)
	}
	return o
}

// TestSeedCheck runs every workload on two seeds: all checks pass, the
// modeled digest repeats exactly for a seed (traced or not) and differs
// between seeds.
func TestSeedCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runSmall(t, w, 1, nil)
			again := runSmall(t, w, 1, newTracer())
			b := runSmall(t, w, 2, nil)
			if a.digest != again.digest {
				t.Errorf("seed 1 digest did not repeat: %+v vs %+v", a.digest, again.digest)
			}
			if a.digest == b.digest {
				t.Errorf("seeds 1 and 2 gave the same digest %+v", a.digest)
			}
		})
	}
}

// TestModuleTableCoversWorkloads fails when a workload's timed phase runs a
// sim process the module table does not name, so a renamed process is a
// test failure instead of silent sim.unclassified_host_ms.
func TestModuleTableCoversWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			runSmall(t, w, 3, tr)
			for name := range tr.unassigned {
				t.Errorf("process %q is not in the module table", name)
			}
			if ns := tr.hostNs[bucketUnclassified]; ns != 0 {
				t.Errorf("%d ns charged to unclassified processes", ns)
			}
			if tr.events == 0 {
				t.Error("the hook saw no events")
			}
		})
	}
}

func TestModuleOf(t *testing.T) {
	for proc, want := range map[string]string{
		"netback-rx-7-q0": "netdrv", "netback-tx-7-q1": "netdrv", "blkback-7-q0": "blkdrv",
		"xenstored-events-3": "xenstore", "builder-batch-boot": "builder",
		"restart-timer-netback": "snapshot", "attack-mr": "snapshot", "console-12": "consolemgr",
		"httpd-worker-7-2": "guest", "ab-client-4": "guest", "wget-recv": "guest", "guest-http": "guest",
		"fn-41": "workload", "workload-churn": "workload", "storm-host-1-5": "cluster",
		"cluster-rebalancer": "cluster", "attack-seq": "attack", "boot-console": "boot",
		"attack-seq-2": "", "wget-recv2": "", "mkguest": "",
	} {
		if got := moduleOf(proc); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", proc, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// same workloads, and the metrics each mode prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		section string
		got     []struct{ Name, Unit string }
		want    []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metric
		for _, m := range c.got {
			got = append(got, metric{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BENCHMARK.json %s\n got %v\nwant %v", c.section, got, c.want)
		}
	}
}
