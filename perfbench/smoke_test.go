package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for one second in both modes against a
// real three-node cluster and checks that the gate passes and that the
// result carries exactly the metrics BENCHMARK.json names, with their
// units. The sharded catalog is shrunk so seeding takes seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts avnode clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "avnode")
	if out, err := exec.Command("go", "build", "-o", bin, "avdb/cmd/avnode").CombinedOutput(); err != nil {
		t.Fatalf("build avnode: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		w := *workloads[name]
		if w.items > 4096 {
			w.items = 4096
		}
		for mode := 0; mode <= 1; mode++ {
			o := options{workload: name, seed: 7, seconds: 1, trace: mode, avnode: bin, work: filepath.Join(dir, "runs")}
			res, err := run(o, &w)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, mode, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
				t.Fatalf("%s trace=%d: result %+v", name, mode, res)
			}
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				if mode == 0 {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range spec.PerLayer {
				if mode == 1 {
					want[m.Name] = m.Unit
				}
			}
			for n, u := range want {
				got, ok := res.Metrics[n]
				if !ok || got.Unit != u {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, mode, n, got, u)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%d: metric %s is not in BENCHMARK.json", name, mode, n)
				}
			}
		}
	}
}
