package main

import (
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// spec declares one reported metric. owner is the workload whose traced
// run measures a per-layer metric ("" for every workload). Every traced
// run reports every per-layer metric; one whose layer the workload does
// not exercise reads 0. BENCHMARK.json declares the same names and
// units, which the package test checks.
type spec struct{ name, unit, owner string }

var endToEndSpecs = []spec{
	{"setup_s", "s", ""},
	{"op_p50_ms", "ms", ""},
	{"op_p90_ms", "ms", ""},
	{"ops_per_s", "1/s", ""},
	{"peak_rss_mb", "MiB", ""},
}

var layerSpecs = buildLayerSpecs()

func buildLayerSpecs() []spec {
	s := []spec{
		{"parser.parse_ms", "ms", "compile"},
		{"analysis.analyze_ms", "ms", "compile"},
		{"schedule.plan_ms", "ms", "compile"},
		{"codegen.lower_ms", "ms", "compile"},
		{"loopir.optimize_ms", "ms", "compile"},
		{"certify.certify_ms", "ms", "compile"},
		{"core.compile_ms", "ms", "compile"},
		{"core.run_ms", "ms", "compile"},
		{"metrics.phase_overlap_ms", "ms", "compile"},
		{"certify.claims", "count", "compile"},
		{"certify.certified_frac", "frac", "compile"},
		{"codegen.thunked_defs", "count", "compile"},
		{"loopir.loops_fused", "count", "compile"},
		{"schedule.parallel_loops", "count", "compile"},
	}
	for _, k := range kernelNames {
		s = append(s, spec{"loopir.exec_ms." + k, "ms", "kernels"})
	}
	s = append(s,
		spec{"runtime.clone_ms", "ms", "kernels"},
		spec{"core.dispatch_ms", "ms", "kernels"},
		spec{"idxprop.verify_ms", "ms", "kernels"},
		spec{"idxprop.verified", "count", "kernels"},
		spec{"idxprop.failed", "count", "kernels"},
	)
	for _, k := range kernelNames {
		s = append(s, spec{"kernels.vs_hand." + k, "ratio", "kernels"})
	}
	for _, k := range kernelNames {
		s = append(s, spec{"loopir.w2_speedup." + k, "ratio", "kernels"})
	}
	return append(s,
		spec{"net.transport_ms", "ms", "serve"},
		spec{"serve.handler_ms", "ms", "serve"},
		spec{"serve.other_ms", "ms", "serve"},
		spec{"serve.eval_ms", "ms", "serve"},
		spec{"serve.compile_ms", "ms", "serve"},
		spec{"cache.hit_frac", "frac", "serve"},
		spec{"cache.misses", "count", "serve"},
		spec{"cache.evictions", "count", "serve"},
		spec{"stream.peak_mb", "MiB", "stream"},
		spec{"stream.materialized_mb", "MiB", "stream"},
		spec{"stream.chunks", "count", "stream"},
		spec{"stream.stages", "count", "stream"},
		spec{"stream.vs_materialized", "ratio", "stream"},
		spec{"trace.overhead_frac", "frac", ""},
		spec{"trace.unattributed_frac", "frac", ""},
	)
}

// endToEndMetrics computes an untraced run's metrics. Latency
// statistics cover the ops that completed with a correct output.
func endToEndMetrics(o *outcome) map[string]metric {
	lat := o.phase.latencies()
	return withUnits(endToEndSpecs, map[string]float64{
		"setup_s":     median(o.setup).Seconds(),
		"op_p50_ms":   ms(quantile(lat, 0.5)),
		"op_p90_ms":   ms(quantile(lat, 0.9)),
		"ops_per_s":   ratio(float64(len(lat)), o.phase.wall.Seconds()),
		"peak_rss_mb": o.rssMiB,
	})
}

// withUnits reports every declared metric with its unit.
func withUnits(specs []spec, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		x := v[s.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[s.name] = metric{Value: x, Unit: s.unit}
	}
	return out
}

type number interface{ ~int64 | ~float64 }

// quantile returns the nearest-rank q-quantile of xs (zero when empty).
func quantile[T number](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median[T number](xs []T) T { return quantile(xs, 0.5) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMiB is the process's peak resident set size so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func hostStamp() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go_version": goruntime.Version(),
		"os":         goruntime.GOOS,
		"arch":       goruntime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
