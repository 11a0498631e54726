package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCompileReportPhases(t *testing.T) {
	r := NewCompileReport()
	r.AddPhase(PhaseParse, 2*time.Millisecond)
	r.AddPhase(PhaseParse, 3*time.Millisecond)
	r.AddPhase(PhaseLower, 5*time.Millisecond)
	r.AddPhase(PhaseOptimize, -time.Second) // clamped
	if got := r.Phases[PhaseParse]; got != 5*time.Millisecond {
		t.Fatalf("parse phase = %v, want 5ms", got)
	}
	if got := r.Total(); got != 10*time.Millisecond {
		t.Fatalf("total = %v, want 10ms", got)
	}
	r.Counters.AddSchedule("wavefront")
	r.Counters.AddSchedule("wavefront")
	r.Counters.AddSchedule("shard")
	s := r.String()
	for _, want := range []string{"parse", "optimize", "wavefront=2", "shard=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_total", "a counter")
	c.Add(3)
	g := reg.NewGauge("test_gauge", "a gauge")
	g.Set(1.5)
	reg.NewGaugeFunc("test_fn", "a callback gauge", func() float64 { return 42 })
	cv := reg.NewCounterVec("test_labeled_total", "labeled", "kind")
	cv.With("a").Inc()
	cv.With("b").Add(2)
	hv := reg.NewHistogramVec("test_seconds", "latency", "phase", []float64{0.1, 1})
	hv.With("parse").Observe(0.05)
	hv.With("parse").Observe(0.5)
	hv.With("parse").Observe(5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_total counter",
		"test_total 3",
		"test_gauge 1.5",
		"test_fn 42",
		`test_labeled_total{kind="a"} 1`,
		`test_labeled_total{kind="b"} 2`,
		`test_seconds_bucket{phase="parse",le="0.1"} 1`,
		`test_seconds_bucket{phase="parse",le="1"} 2`,
		`test_seconds_bucket{phase="parse",le="+Inf"} 3`,
		`test_seconds_count{phase="parse"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("dup", "y")
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}
