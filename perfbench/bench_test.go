package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

// TestSmoke runs the command's smoke mode on every workload it runs,
// untraced and traced, and holds its output to BENCHMARK.json: every
// workload named there is one the command runs, every printed metric is
// named there with the same unit, and every metric named there is printed.
// The command also runs read-mostly, an unbounded reference workload.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q the command does not run", w.Name)
		}
	}
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig().smoke()
			cfg.workload, cfg.seed, cfg.trace, cfg.workdir = wl, 5, traced, t.TempDir()
			cfg.seconds = 0.5
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.json()), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%v)", wl, traced, out.Correct, out.Attempted, out.Failed, res.err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", wl, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for name := range out.Metrics {
				found := false
				for _, m := range want {
					found = found || m.Name == name
				}
				if !found {
					t.Errorf("%s trace=%v: printed metric %s is not in BENCHMARK.json", wl, traced, name)
				}
			}
		}
	}
}
