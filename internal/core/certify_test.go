package core

import (
	"testing"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/metrics"
	"arraycomp/internal/workloads"
)

// certifyWorkloads is the canonical corpus: every paper workload must
// compile with -certify and report zero falsified claims — the
// acceptance bar for the soundness-certification engine.
var certifyWorkloads = []struct {
	name string
	src  string
	// inputs lists free input arrays filled as n×n matrices.
	inputs []string
}{
	{"squares", workloads.SquaresSrc, nil},
	{"recurrence", workloads.RecurrenceSrc, nil},
	{"wavefront", workloads.WavefrontSrc, nil},
	{"example1", workloads.Example1Src, nil},
	{"example2", workloads.Example2Src, nil},
	{"mixedpass", workloads.MixedPassSrc, nil},
	{"cyclic", workloads.CyclicSrc, nil},
	{"rowswap", workloads.RowSwapSrc, []string{"a"}},
	{"jacobi", workloads.JacobiSrc, []string{"a"}},
	{"sor", workloads.SORSrc, []string{"a"}},
	{"livermore23", workloads.Livermore23Src, []string{"za", "zr", "zb", "zu", "zv"}},
	{"scalerow", workloads.ScaleRowSrc, []string{"a"}},
	{"saxpy", workloads.SaxpyRowSrc, []string{"a"}},
	{"histogram", workloads.HistogramSrc, nil},
	{"jacobi-mono", workloads.JacobiMonolithicSrc, []string{"b"}},
}

func certifyCompile(t *testing.T, name, src string, inputs []string, n int64, parallel bool) *Program {
	t.Helper()
	opts := Options{Certify: true, Parallel: parallel}
	if parallel {
		opts.Workers = 4
	}
	if len(inputs) > 0 {
		opts.InputBounds = map[string]analysis.ArrayBounds{}
		lo, hi := workloads.MatrixBounds(n)
		for _, in := range inputs {
			opts.InputBounds[in] = analysis.ArrayBounds{Lo: lo, Hi: hi}
		}
	}
	p, err := Compile(src, workloads.ParamsFor(name, n), opts)
	if err != nil {
		t.Fatalf("%s: certified compile failed: %v", name, err)
	}
	return p
}

// TestCertifyWorkloads certifies the whole corpus, sequential and
// parallel, at a size small enough for exhaustive shadow enumeration
// and at one larger (clamped) size.
func TestCertifyWorkloads(t *testing.T) {
	for _, n := range []int64{12, 96} {
		for _, parallel := range []bool{false, true} {
			for _, wl := range certifyWorkloads {
				p := certifyCompile(t, wl.name, wl.src, wl.inputs, n, parallel)
				if p.Certs == nil {
					t.Fatalf("%s (n=%d parallel=%v): no certification report", wl.name, n, parallel)
				}
				if p.Certs.FalsifiedCount != 0 {
					t.Errorf("%s (n=%d parallel=%v): falsified claims:\n%s", wl.name, n, parallel, p.Certs)
				}
				// Claim counters must mirror the report.
				c := p.Stats.Counters
				if c.ClaimsCertified != p.Certs.CertifiedCount || c.ClaimsFalsified != p.Certs.FalsifiedCount || c.ClaimsSkipped != p.Certs.SkippedCount {
					t.Errorf("%s: counters %d/%d/%d diverge from report %s", wl.name,
						c.ClaimsCertified, c.ClaimsFalsified, c.ClaimsSkipped, p.Certs.Summary())
				}
			}
		}
	}
}

// TestCertifyProducesCertificates: a schedulable workload with real
// dependences must yield a nonzero certificate count (the audit is not
// vacuous), and certification must not change the compiled result.
func TestCertifyProducesCertificates(t *testing.T) {
	n := int64(24)
	p := certifyCompile(t, "wavefront", workloads.WavefrontSrc, nil, n, false)
	if p.Certs.CertifiedCount == 0 {
		t.Fatalf("wavefront certified nothing: %s", p.Certs.Summary())
	}
	got, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(workloads.WavefrontSrc, map[string]int64{"n": n}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWithin(want, 0) {
		t.Fatal("certified compile produced a different result")
	}
}

// TestCertifyReportsThroughProgram: the Certs report is attached only
// when requested.
func TestCertifyReportsThroughProgram(t *testing.T) {
	p := compile(t, workloads.SquaresSrc, map[string]int64{"n": 16}, Options{})
	if p.Certs != nil {
		t.Fatal("Certs attached without Options.Certify")
	}
}

// TestCertifyTimesPerCertifier: every certifier a compile runs charges
// its time to its layer, also when it files no certificate, and the
// layer times add up to the certify phase.
func TestCertifyTimesPerCertifier(t *testing.T) {
	lo, hi := workloads.MatrixBounds(64)
	opts := Options{Certify: true, Parallel: true, Workers: 2,
		InputBounds: map[string]analysis.ArrayBounds{"a": {Lo: lo, Hi: hi}}}
	p := compile(t, workloads.SORSrc, map[string]int64{"n": 64}, opts)
	var sum time.Duration
	for _, layer := range []string{"analysis", "schedule", "plan", "stencil", "claims"} {
		d, ok := p.Certs.Times[layer]
		if !ok {
			t.Errorf("no time for the %s certifier: %v", layer, p.Certs.Times)
		}
		sum += d
	}
	if len(p.Certs.Times) != 5 {
		t.Errorf("times %v, want the five certifiers SOR runs", p.Certs.Times)
	}
	if want := p.Stats.Phases[metrics.PhaseCertify]; sum != want {
		t.Errorf("layer times sum to %v, certify phase %v", sum, want)
	}
}
