package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/workloads"
)

// certifyGoldenPath holds the per-layer certificate tallies of the
// golden corpus. The certifiers may change how they enumerate, but not
// what they conclude: every layer must keep its (certified, falsified,
// skipped, exhaustive-certified) counts on every program.
const certifyGoldenPath = "testdata/certify_golden.txt"

type goldenCase struct {
	name   string
	src    string
	params map[string]int64
	opts   Options
}

// certifyGoldenCorpus is the six paper programs at n=64, 64 generated
// clean programs (the second half with frequent subscripted-subscript
// pairs), then Jacobi at n=96 and SOR at n=256, which plan a certified
// shard and a certified wavefront. Options match the benchmark's
// compile workload: Parallel with two workers and Certify.
func certifyGoldenCorpus() []goldenCase {
	mesh := func(n int64, names ...string) map[string]analysis.ArrayBounds {
		lo, hi := workloads.MatrixBounds(n)
		b := map[string]analysis.ArrayBounds{}
		for _, name := range names {
			b[name] = analysis.ArrayBounds{Lo: lo, Hi: hi}
		}
		return b
	}
	opts := func(in map[string]analysis.ArrayBounds) Options {
		return Options{Certify: true, Parallel: true, Workers: 2, InputBounds: in}
	}
	p := map[string]int64{"n": 64}
	cases := []goldenCase{
		{"sor", workloads.SORSrc, p, opts(mesh(64, "a"))},
		{"jacobi", workloads.JacobiSrc, p, opts(mesh(64, "a"))},
		{"l23", workloads.Livermore23Src, p, opts(mesh(64, "za", "zr", "zb", "zu", "zv"))},
		{"wavefront", workloads.WavefrontSrc, p, opts(nil)},
		{"example1", workloads.Example1Src, p, opts(nil)},
		{"mixedpass", workloads.MixedPassSrc, p, opts(nil)},
	}
	for seed := uint64(1); seed <= 64; seed++ {
		cfg := gencomp.Config{ErrorWeight: -1}
		if seed > 32 {
			cfg.IdxWeight = 400
		}
		gp := gencomp.Generate(seed, cfg)
		cases = append(cases, goldenCase{fmt.Sprintf("gen%02d", seed), gp.Source, gp.Params, opts(gp.Inputs)})
	}
	return append(cases,
		goldenCase{"jacobi", workloads.JacobiSrc, map[string]int64{"n": 96}, opts(mesh(96, "a"))},
		goldenCase{"sor", workloads.SORSrc, map[string]int64{"n": 256}, opts(mesh(256, "a"))})
}

// certifyGoldenTable compiles the corpus and renders one line per
// (program, layer): "name layer certified falsified skipped exhaustive",
// or "name none" for a program without certificates.
func certifyGoldenTable(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, c := range certifyGoldenCorpus() {
		p, err := Compile(c.src, c.params, c.opts)
		if err != nil {
			fmt.Fprintf(&b, "%s error\n", c.name)
			continue
		}
		layers := make([]string, 0, len(p.Certs.Layers))
		for layer := range p.Certs.Layers {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		if len(layers) == 0 {
			fmt.Fprintf(&b, "%s none\n", c.name)
		}
		for _, layer := range layers {
			tl := p.Certs.Layers[layer]
			fmt.Fprintf(&b, "%s %s %d %d %d %d\n", c.name, layer, tl.Certified, tl.Falsified, tl.Skipped, tl.Exhaustive)
		}
	}
	return b.String()
}

// TestCertifyGoldenReports pins the certifiers' verdict counts. Plan
// shapes depend only on the corpus options (Workers: 2), not on the
// host.
func TestCertifyGoldenReports(t *testing.T) {
	want, err := os.ReadFile(certifyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := certifyGoldenTable(t)
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	t.Fatalf("certificate tallies differ from %s; full table:\n%s", certifyGoldenPath, got)
}

// BenchmarkCompileCertify is a certified cold compile of the six paper
// programs at n=64 with the compile workload's options: the end-to-end
// cost of -certify next to the per-layer certifier benchmarks.
func BenchmarkCompileCertify(b *testing.B) {
	cases := certifyGoldenCorpus()[:6]
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range cases {
			if _, err := Compile(c.src, c.params, c.opts); err != nil {
				b.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}
