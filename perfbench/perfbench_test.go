package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

// declared is the metric part of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics pins the code's metric table to BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	for _, c := range []struct {
		specs []spec
		json  []struct{ Name, Unit string }
	}{{endToEndSpecs, d.EndToEnd}, {layerSpecs, d.PerLayer}} {
		if len(c.specs) != len(c.json) {
			t.Errorf("code declares %d metrics, BENCHMARK.json %d", len(c.specs), len(c.json))
			continue
		}
		for i, s := range c.specs {
			if s.name != c.json[i].Name || s.unit != c.json[i].Unit {
				t.Errorf("metric %d: code %s (%s), BENCHMARK.json %s (%s)", i, s.name, s.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

// TestWorkloads makes a short run of every workload, untraced and
// traced, and checks that every op's output verified and that every
// declared metric is reported with its unit.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	goruntime.GOMAXPROCS(workers)
	d := readDeclared(t)
	for _, name := range []string{"kernels", "compile", "serve", "stream"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				cfg := config{workload: name, seed: 3, budget: time.Second, trace: traced, minOps: 4, spansDir: t.TempDir()}
				o, err := workloadFuncs[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := writeReport(&out, cfg, o); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < cfg.minOps {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := d.EndToEnd
				if traced {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !traced {
					return
				}
				for _, s := range layerSpecs {
					if _, ok := o.layers[s.name]; !ok && (s.owner == "" || s.owner == name) {
						t.Errorf("%s is not measured", s.name)
					}
				}
				for k := range o.layers {
					if _, ok := res.Metrics[k]; !ok {
						t.Errorf("%s is measured but not declared", k)
					}
				}
			})
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.compile", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "core.run", Start: 60, End: 90},
	}}
	self := r.selfMsPerOp()
	if got, want := self["core"], ms(80); got != want {
		t.Errorf("core self time %v ms, want %v", got, want)
	}
	if got := r.unattributedFrac(); got != 0.2 {
		t.Errorf("unattributed %v, want 0.2", got)
	}
}
