package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

func mustUnmarshal(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
}

func sparseEvalRequest(c workloads.SparseCase, opts optionsJSON) evalRequest {
	opts.InputBounds = map[string]boundsJSON{}
	inputs := map[string]arrayJSON{}
	for name, a := range c.Inputs {
		opts.InputBounds[name] = boundsJSON{Lo: a.B.Lo, Hi: a.B.Hi}
		inputs[name] = arrayJSON{Lo: a.B.Lo, Hi: a.B.Hi, Data: a.Data}
	}
	return evalRequest{
		compileRequest: compileRequest{Source: workloads.SpMVSrc, Params: c.Params, Options: opts},
		evalContext:    evalContext{Inputs: inputs},
	}
}

func scrapeCounter(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		io.Copy(io.Discard, resp.Body)
		return v
	}
	t.Fatalf("metric %s absent from exposition", name)
	return 0
}

func checkSpMVResult(t *testing.T, got arrayJSON, want *runtime.Strict) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("result has %d elements, want %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("result[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestEvalSpMVIdxPropMetrics is the end-to-end irregular-workload
// contract for the daemon: a certified, claim-conditional SpMV
// submitted over HTTP (1) verifies its CSR-ordered index arrays at
// runtime and surfaces the verdicts and the passes' time in /metrics,
// and (2) on a violating
// (shuffled, non-monotone) index array falls back to the checked
// sequential path with the identical correct result — never a 5xx.
func TestEvalSpMVIdxPropMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	opts := optionsJSON{Parallel: true, Workers: 4, Certify: true}

	good := workloads.CSRInputs(64, 4, 9)
	resp, body := postJSON(t, ts.URL+"/eval", sparseEvalRequest(good, opts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CSR eval status = %d: %s", resp.StatusCode, body)
	}
	var er evalResponse
	mustUnmarshal(t, body, &er)
	checkSpMVResult(t, er.Result, workloads.HandSpMV(good))
	verified := scrapeCounter(t, ts, "haccd_idxprop_verified_total")
	if verified == 0 {
		t.Fatalf("haccd_idxprop_verified_total = 0 after a verifying eval")
	}
	if failed := scrapeCounter(t, ts, "haccd_idxprop_verify_failures_total"); failed != 0 {
		t.Fatalf("haccd_idxprop_verify_failures_total = %v before any violating eval", failed)
	}
	if secs := scrapeCounter(t, ts, "haccd_idxprop_verify_seconds_total"); secs <= 0 {
		t.Fatalf("haccd_idxprop_verify_seconds_total = %v after a verifying eval", secs)
	}

	// Same program, same cache entry — only the inputs change. The
	// shuffled rows break the monotonicity claim, so the verifier must
	// reject and the checked sequential branch must produce the same
	// matrix-vector product the CSR ordering did.
	bad := workloads.ShuffleRows(good, 10)
	resp, body = postJSON(t, ts.URL+"/eval", sparseEvalRequest(bad, opts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("violating eval status = %d (want 200, never 5xx): %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &er)
	if er.Cache != "hit" {
		t.Errorf("violating eval cache = %s, want hit (inputs are not part of the key)", er.Cache)
	}
	checkSpMVResult(t, er.Result, workloads.HandSpMV(bad))
	if failed := scrapeCounter(t, ts, "haccd_idxprop_verify_failures_total"); failed == 0 {
		t.Errorf("haccd_idxprop_verify_failures_total = 0 after a violating eval (fallback never taken)")
	}
	if again := scrapeCounter(t, ts, "haccd_idxprop_verified_total"); again < verified {
		t.Errorf("haccd_idxprop_verified_total went backwards: %v -> %v", verified, again)
	}
}
