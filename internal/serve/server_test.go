package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"arraycomp/internal/core"
	"arraycomp/internal/metrics"
)

const wavefrontSrc = `a = array ((1,1),(n,n))
  ([ (1,j) := 1.0 | j <- [1..n] ] ++
   [ (i,1) := 1.0 | i <- [2..n] ] ++
   [ (i,j) := a!(i-1,j) + a!(i,j-1) | i <- [2..n], j <- [2..n] ])`

const scaleSrc = `a2 = array (1,n) [ i := b!i * 2.0 | i <- [1..n] ]`

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CacheEntries = 32
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestCompileMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := compileRequest{Source: wavefrontSrc, Params: map[string]int64{"n": 16}}
	resp, body := postJSON(t, ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d: %s", resp.StatusCode, body)
	}
	var first compileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.CompileNs <= 0 || len(first.PhasesNs) == 0 {
		t.Fatalf("first compile: %+v, want a miss with phase costs", first)
	}
	if first.Report.Modes["a"] != "thunkless" {
		t.Fatalf("report modes = %v, want a: thunkless", first.Report.Modes)
	}
	if first.Report.Counters.CollisionChecksElided != 3 {
		t.Fatalf("counters = %+v, want 3 collision checks elided", first.Report.Counters)
	}
	_, body = postJSON(t, ts.URL+"/compile", req)
	var second compileResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || second.CompileNs != 0 || len(second.PhasesNs) != 0 {
		t.Fatalf("second compile: %+v, want a zero-cost hit", second)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", second.Key, first.Key)
	}
}

// The acceptance contract: /eval on a warm cache skips
// parse/analyze/lower entirely — zero compile-phase time is recorded
// for the request, both in the response and in the phase histograms.
func TestEvalWarmCacheSkipsCompilePhases(t *testing.T) {
	s, ts := newTestServer(t, nil)
	req := evalRequest{compileRequest: compileRequest{Source: wavefrontSrc, Params: map[string]int64{"n": 24}}}
	resp, body := postJSON(t, ts.URL+"/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold eval status = %d: %s", resp.StatusCode, body)
	}
	var cold evalResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" || cold.CompileNs <= 0 {
		t.Fatalf("cold eval: cache=%s compile_ns=%d, want a paid miss", cold.Cache, cold.CompileNs)
	}
	// Snapshot per-phase observation counts after the cold compile.
	phaseCounts := map[string]uint64{}
	for _, ph := range metrics.Phases {
		phaseCounts[ph] = s.phaseSeconds.With(ph).Count()
	}
	if phaseCounts[metrics.PhaseParse] == 0 || phaseCounts[metrics.PhaseLower] == 0 {
		t.Fatalf("cold compile recorded no phase observations: %v", phaseCounts)
	}

	for i := 0; i < 3; i++ {
		_, body = postJSON(t, ts.URL+"/eval", req)
		var warm evalResponse
		if err := json.Unmarshal(body, &warm); err != nil {
			t.Fatal(err)
		}
		if warm.Cache != "hit" {
			t.Fatalf("eval %d: cache=%s, want hit", i, warm.Cache)
		}
		if warm.CompileNs != 0 || len(warm.PhasesNs) != 0 {
			t.Fatalf("eval %d recorded compile-phase time on a hit: compile_ns=%d phases=%v",
				i, warm.CompileNs, warm.PhasesNs)
		}
		if warm.EvalNs <= 0 {
			t.Fatalf("eval %d: eval_ns=%d, want >0", i, warm.EvalNs)
		}
	}
	// The histograms saw nothing new: zero compile-phase time recorded
	// on hits.
	for _, ph := range metrics.Phases {
		if got := s.phaseSeconds.With(ph).Count(); got != phaseCounts[ph] {
			t.Errorf("phase %s histogram grew on warm evals: %d -> %d", ph, phaseCounts[ph], got)
		}
	}
}

// 64 concurrent /eval requests against one warm entry must all
// succeed with outputs bitwise identical to a cold out-of-process
// compile. Run under -race in CI.
func TestEvalConcurrentBitwiseIdentical(t *testing.T) {
	_, ts := newTestServer(t, nil)
	params := map[string]int64{"n": 32}
	// The reference: a cold compile+run through core directly.
	prog, err := core.Compile(wavefrontSrc, params, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	req := evalRequest{compileRequest: compileRequest{Source: wavefrontSrc, Params: params}}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/eval", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var er evalResponse
			if err := json.Unmarshal(body, &er); err != nil {
				errs[i] = err
				return
			}
			if len(er.Result.Data) != len(want.Data) {
				errs[i] = fmt.Errorf("result size %d, want %d", len(er.Result.Data), len(want.Data))
				return
			}
			for j := range want.Data {
				if math.Float64bits(er.Result.Data[j]) != math.Float64bits(want.Data[j]) {
					errs[i] = fmt.Errorf("element %d differs bitwise from cold compile", j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestEvalWithExplicitAndGeneratedInputs(t *testing.T) {
	_, ts := newTestServer(t, nil)
	bounds := map[string]boundsJSON{"b": {Lo: []int64{1}, Hi: []int64{4}}}
	// Explicit data.
	req := evalRequest{
		compileRequest: compileRequest{
			Source:  scaleSrc,
			Params:  map[string]int64{"n": 4},
			Options: optionsJSON{InputBounds: bounds},
		},
		evalContext: evalContext{Inputs: map[string]arrayJSON{"b": {Lo: []int64{1}, Hi: []int64{4}, Data: []float64{1, 2, 3, 4}}}},
	}
	resp, body := postJSON(t, ts.URL+"/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status = %d: %s", resp.StatusCode, body)
	}
	var er evalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(er.Result.Data) != "[2 4 6 8]" {
		t.Fatalf("result = %v, want [2 4 6 8]", er.Result.Data)
	}
	// Generated inputs are deterministic in the seed.
	gen := evalRequest{compileRequest: req.compileRequest, evalContext: evalContext{Seed: 7}}
	_, b1 := postJSON(t, ts.URL+"/eval", gen)
	_, b2 := postJSON(t, ts.URL+"/eval", gen)
	var er1, er2 evalResponse
	if err := json.Unmarshal(b1, &er1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &er2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(er1.Result.Data) != fmt.Sprint(er2.Result.Data) {
		t.Fatalf("seeded eval not deterministic: %v vs %v", er1.Result.Data, er2.Result.Data)
	}
	// Mismatched data length is a 400.
	bad := req
	bad.Inputs = map[string]arrayJSON{"b": {Lo: []int64{1}, Hi: []int64{4}, Data: []float64{1}}}
	resp, _ = postJSON(t, ts.URL+"/eval", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input data: status = %d, want 400", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := compileRequest{Source: wavefrontSrc, Params: map[string]int64{"n": 8}}
	postJSON(t, ts.URL+"/compile", req)
	postJSON(t, ts.URL+"/compile", req)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"haccd_cache_hits_total 1",
		"haccd_cache_misses_total 1",
		"haccd_cache_evictions_total 0",
		"haccd_cache_entries 1",
		`haccd_compile_phase_seconds_count{phase="parse"} 1`,
		`haccd_compile_phase_seconds_bucket{phase="lower",le="+Inf"} 1`,
		`haccd_requests_total{handler="compile"} 2`,
		`haccd_opt_total{kind="collision_checks_elided"} 3`,
		`haccd_schedules_total{kind="sequential"}`,
		"haccd_cache_singleflight_waits_total 0",
		"haccd_cache_disk_hits_total 0",
		"haccd_cache_disk_writes_total 0",
		"haccd_cache_disk_discards_total 0",
		"haccd_queued_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBody = 256 })
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", resp.StatusCode)
	}
	// Missing source.
	resp, _ = postJSON(t, ts.URL+"/compile", compileRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing source: status = %d, want 400", resp.StatusCode)
	}
	// Compile error.
	resp, _ = postJSON(t, ts.URL+"/compile", compileRequest{Source: "a = array (1,n) [ i := z!i | i <- [1..n] ]", Params: map[string]int64{"n": 4}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("compile error: status = %d, want 422", resp.StatusCode)
	}
	// Body over the cap.
	big := compileRequest{Source: strings.Repeat("x", 1024)}
	resp, _ = postJSON(t, ts.URL+"/compile", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status = %d, want 405", resp.StatusCode)
	}
}

// The limiter serializes work but never loses requests. The queue is
// deep enough for every concurrent post, so none is shed (shedding is
// covered by TestAdmissionControlSheds), and a request after the
// burst proves every slot was released.
func TestConcurrencyLimiterReleasesSlots(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Concurrency = 1
		c.QueueDepth = 8
	})
	req := evalRequest{compileRequest: compileRequest{Source: wavefrontSrc, Params: map[string]int64{"n": 16}}}
	data, _ := json.Marshal(req)
	post := func() {
		resp, err := http.Post(ts.URL+"/eval", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Errorf("post: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status = %d under limiter", resp.StatusCode)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post()
		}()
	}
	wg.Wait()
	post()
}

// Parallel-scheduled plans execute on the shared warm worker pool.
func TestEvalParallelOptions(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := evalRequest{compileRequest: compileRequest{
		Source:  wavefrontSrc,
		Params:  map[string]int64{"n": 64},
		Options: optionsJSON{Parallel: true, Workers: 4},
	}}
	resp, body := postJSON(t, ts.URL+"/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parallel eval status = %d: %s", resp.StatusCode, body)
	}
	var er evalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	// Sequential and parallel plans are distinct cache entries with
	// bitwise-identical results (PR 3's determinism contract).
	seq := evalRequest{compileRequest: compileRequest{Source: wavefrontSrc, Params: map[string]int64{"n": 64}}}
	_, sbody := postJSON(t, ts.URL+"/eval", seq)
	var sr evalResponse
	if err := json.Unmarshal(sbody, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Key == er.Key {
		t.Fatal("parallel and sequential requests share a cache key")
	}
	for i := range sr.Result.Data {
		if math.Float64bits(sr.Result.Data[i]) != math.Float64bits(er.Result.Data[i]) {
			t.Fatalf("parallel result diverges at %d", i)
		}
	}
}

// TestEvalTiered drives one plan across the promotion boundary:
// tier=auto with a threshold of 2 and synchronous promotion serves the
// first eval interpreted, promotes inline on the second, and serves
// natively from then on — with every response bitwise identical to an
// untiered eval, and the tier counters/gauges visible in /metrics.
func TestEvalTiered(t *testing.T) {
	_, ts := newTestServer(t, nil)
	params := map[string]int64{"n": 16}
	req := evalRequest{compileRequest: compileRequest{
		Source:  wavefrontSrc,
		Params:  params,
		Options: optionsJSON{Tier: "auto", TierThreshold: 2, TierSync: true},
	}}
	plain := evalRequest{compileRequest: compileRequest{Source: wavefrontSrc, Params: params}}
	_, pbody := postJSON(t, ts.URL+"/eval", plain)
	var want evalResponse
	if err := json.Unmarshal(pbody, &want); err != nil {
		t.Fatal(err)
	}
	wantTiers := []string{"interpreted", "native", "native"}
	for i, wantTier := range wantTiers {
		resp, body := postJSON(t, ts.URL+"/eval", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tiered eval %d: status %d: %s", i, resp.StatusCode, body)
		}
		var er evalResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Tier != wantTier {
			t.Fatalf("eval %d served by tier %q, want %q", i, er.Tier, wantTier)
		}
		for j := range want.Result.Data {
			if math.Float64bits(er.Result.Data[j]) != math.Float64bits(want.Result.Data[j]) {
				t.Fatalf("eval %d (tier %s): element %d differs bitwise from untiered eval", i, er.Tier, j)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, wantLine := range []string{
		`haccd_tier_runs_total{tier="interpreted"} 1`, // the pre-promotion eval; untiered plans don't tally
		`haccd_tier_runs_total{tier="native"} 2`,
		"haccd_tier_promotions_total 1",
		"haccd_tier_promote_failures_total 0",
		"haccd_cache_native_entries 1",
	} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("metrics exposition missing %q", wantLine)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestEvalTierServerDefault: a server started with -tier native applies
// the policy to requests that don't mention tiering, and a request that
// says tier:"off" opts out of the default.
func TestEvalTierServerDefault(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Tier = core.TierForced })
	req := evalRequest{compileRequest: compileRequest{Source: wavefrontSrc, Params: map[string]int64{"n": 8}}}
	resp, body := postJSON(t, ts.URL+"/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status = %d: %s", resp.StatusCode, body)
	}
	var er evalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Tier != "native" {
		t.Fatalf("server-default forced tier served %q, want native", er.Tier)
	}
	off := req
	off.Options = optionsJSON{Tier: "off"}
	_, body = postJSON(t, ts.URL+"/eval", off)
	var offResp evalResponse
	if err := json.Unmarshal(body, &offResp); err != nil {
		t.Fatal(err)
	}
	if offResp.Tier == "native" {
		t.Fatalf("explicit tier:off still served natively")
	}
	if offResp.Key == er.Key {
		t.Fatal("tiered and untiered requests share a cache key")
	}
	// An unknown tier policy is a 400, not a compile attempt.
	bad := req
	bad.Options = optionsJSON{Tier: "warp"}
	resp, _ = postJSON(t, ts.URL+"/eval", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tier mode: status = %d, want 400", resp.StatusCode)
	}
}
