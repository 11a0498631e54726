package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"arraycomp/internal/cache"
	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
	"arraycomp/internal/serve"
)

// The serve workload drives an in-process haccd (serve.New behind
// httptest, over loopback) with one closed-loop client: the next /eval
// request goes out once the previous reply is read and decoded. One
// client keeps the hit/miss sequence of a seed deterministic; two client
// goroutines on two CPUs made the request rate swing by a quarter
// between runs. Programs are picked by Zipf(zipfS) from a population
// three times the cache's capacity, so hits sit beside misses that
// compile and evict.
const (
	serveN          = 160
	servePopulation = 96
	serveCache      = 32
	zipfS           = 1.2
)

// serveSource returns the program at popularity rank r: a 1-D map, a
// first-order recurrence or a 2-D wavefront by r mod 3, each with its
// own constant so every rank is a distinct cache key.
func serveSource(r int) string {
	c := 0.5 + float64(r)/1000
	switch r % 3 {
	case 0:
		return fmt.Sprintf("a = array (1,n) [ i := x!i * %g + 0.25 | i <- [1..n] ]", c)
	case 1:
		return fmt.Sprintf("a = array (1,n) ([ 1 := x!1 ] ++ [ i := %g * a!(i-1) + x!i | i <- [2..n] ])", c)
	default:
		return fmt.Sprintf("a = array ((1,1),(n,n)) ([ (1,j) := x!j | j <- [1..n] ] ++ "+
			"[ (i,1) := 1.0 | i <- [2..n] ] ++ "+
			"[ (i,j) := %g * a!(i-1,j) + 0.3 * a!(i,j-1) + 0.2 * a!(i-1,j-1) | i <- [2..n], j <- [2..n] ])", c)
	}
}

// requestSeed is the input seed rank r's requests carry.
func requestSeed(seed int64, r int) int64 { return seed*1000 + int64(r) + 1 }

type boundsJSON struct {
	Lo []int64 `json:"lo"`
	Hi []int64 `json:"hi"`
}

// evalRequest is an /eval body: the program with its input x declared
// and left out, so haccd fills x from the request seed.
type evalRequest struct {
	Source  string           `json:"source"`
	Params  map[string]int64 `json:"params"`
	Options struct {
		Parallel    bool                  `json:"parallel"`
		Workers     int                   `json:"workers"`
		InputBounds map[string]boundsJSON `json:"input_bounds"`
	} `json:"options"`
	Seed int64 `json:"seed"`
}

// evalReply is the part of the /eval reply the client reads.
type evalReply struct {
	Cache     string `json:"cache"`
	CompileNs int64  `json:"compile_ns"`
	EvalNs    int64  `json:"eval_ns"`
	Result    struct {
		Lo   []int64   `json:"lo"`
		Hi   []int64   `json:"hi"`
		Data []float64 `json:"data"`
	} `json:"result"`
	Error string `json:"error"`
}

// server is a running haccd with its one client connection and the
// encoded request of every rank.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	bodies [][]byte
}

// startServer starts haccd and warms its cache to capacity, least
// popular first so that the most popular rank is the most recently
// used: the set-up a deployment pays.
func startServer(seed int64) (*server, error) {
	srv, err := serve.New(serve.Config{
		CacheEntries: serveCache,
		CacheBytes:   256 << 20,
		MaxBody:      1 << 20,
		Concurrency:  workers,
		Timeout:      30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	for r := 0; r < servePopulation; r++ {
		var req evalRequest
		req.Source = serveSource(r)
		req.Params = map[string]int64{"n": serveN}
		req.Options.Parallel = true
		req.Options.Workers = workers
		req.Options.InputBounds = map[string]boundsJSON{"x": {Lo: []int64{1}, Hi: []int64{serveN}}}
		req.Seed = requestSeed(seed, r)
		body, err := json.Marshal(req)
		if err != nil {
			s.close()
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	for r := serveCache - 1; r >= 0; r-- {
		if _, _, err := s.eval(r, nil, 0, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// eval posts rank r's request and decodes the reply, returning it with
// the round trip's duration. With a recorder it opens spans around the
// round trip (net.request) and the decode (client.decode) under parent.
func (s *server) eval(r int, rec *recorder, op, parent int) (evalReply, time.Duration, error) {
	var rep evalReply
	t0 := time.Now()
	sp := rec.begin(op, parent, "net.request")
	resp, err := s.client.Post(s.ts.URL+"/eval", "application/json", bytes.NewReader(s.bodies[r]))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.end(sp)
	rt := time.Since(t0)
	if err != nil {
		return rep, rt, err
	}
	sp = rec.begin(op, parent, "client.decode")
	err = json.Unmarshal(raw, &rep)
	rec.end(sp)
	if err != nil {
		return rep, rt, fmt.Errorf("decode reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return rep, rt, fmt.Errorf("status %d: %s", resp.StatusCode, rep.Error)
	}
	return rep, rt, nil
}

// handlerSeconds reads the summed /eval handler time from /metrics.
func (s *server) handlerSeconds() (float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, `haccd_request_seconds_sum{handler="eval"} `); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("no /eval latency histogram in /metrics")
}

// fillLikeHaccd fills data the way haccd fills a declared input that a
// request leaves out: math/rand seeded with the request seed XOR the
// FNV-1a hash of the array name.
func fillLikeHaccd(data []float64, seed int64, name string) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	for i := range data {
		data[i] = rng.Float64()
	}
}

// serveReferences computes every rank's result with a direct library
// run of the same source, options and input.
func serveReferences(seed int64) ([]*runtime.Strict, error) {
	want := make([]*runtime.Strict, servePopulation)
	for r := range want {
		x := runtime.NewStrict(runtime.NewBounds1(1, serveN))
		fillLikeHaccd(x.Data, requestSeed(seed, r), "x")
		j := &job{src: serveSource(r), params: map[string]int64{"n": serveN}, inputs: map[string]*runtime.Strict{"x": x}}
		p, err := core.Compile(j.src, j.params, j.options(workers))
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		if want[r], err = p.Run(j.inputs); err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return want, nil
}

// serveSample is one traced request's breakdown.
type serveSample struct {
	client, handler, eval, compile time.Duration
	miss                           bool
}

func runServe(cfg config) (*outcome, error) {
	s, setup, err := repeatSetup(func() (*server, error) { return startServer(cfg.seed) }, (*server).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	want, err := serveReferences(cfg.seed)
	if err != nil {
		return nil, err
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), zipfS, 1, servePopulation-1)
	var rec *recorder
	var lastHandler float64
	if cfg.trace {
		rec = newRecorder()
		if lastHandler, err = s.handlerSeconds(); err != nil {
			return nil, err
		}
	}
	var samples []serveSample
	var untraced, traced []time.Duration
	before := s.srv.CacheStats()
	ph := runPhase(cfg.budget, cfg.minOps, func(i int) (time.Duration, error) {
		r := int(zipf.Uint64())
		var tr *recorder
		if cfg.trace && i%2 == 1 {
			tr = rec
		}
		start := time.Now()
		root := tr.begin(i, -1, "bench.op")
		rep, rt, err := s.eval(r, tr, i, root)
		tr.end(root)
		lat := time.Since(start)
		if err == nil {
			got := &runtime.Strict{B: runtime.Bounds{Lo: rep.Result.Lo, Hi: rep.Result.Hi}, Data: rep.Result.Data}
			if err = agree(want[r], got, true); err != nil {
				err = fmt.Errorf("rank %d: %w", r, err)
			}
		}
		if !cfg.trace || err != nil {
			return lat, err
		}
		// The handler histogram's sum grows by exactly this request's
		// handler time: the client is the server's only caller.
		h, err := s.handlerSeconds()
		if err != nil {
			return lat, err
		}
		if tr == nil {
			untraced = append(untraced, lat)
		} else {
			traced = append(traced, lat)
			samples = append(samples, serveSample{
				client:  rt,
				handler: time.Duration((h - lastHandler) * float64(time.Second)),
				eval:    time.Duration(rep.EvalNs),
				compile: time.Duration(rep.CompileNs),
				miss:    rep.Cache == "miss",
			})
		}
		lastHandler = h
		return lat, nil
	})
	o := &outcome{setup: setup, phase: ph, rssMiB: maxRSSMiB(), stamp: map[string]any{
		"sizes": map[string]any{"n": serveN, "population": servePopulation, "cache_entries": serveCache, "zipf_s": zipfS},
	}}
	if cfg.trace {
		o.spans = rec
		o.layers = serveLayers(samples, before, s.srv.CacheStats())
		traceLayers(o.layers, rec, untraced, traced)
	}
	return o, nil
}

// serveLayers splits traced request time into transport (client round
// trip minus handler), handler, evaluation, compilation (on misses) and
// the rest of the handler; times are means per request.
func serveLayers(samples []serveSample, before, after cache.Stats) map[string]float64 {
	var transport, handler, eval, other, compile []time.Duration
	for _, s := range samples {
		transport = append(transport, s.client-s.handler)
		handler = append(handler, s.handler)
		eval = append(eval, s.eval)
		other = append(other, s.handler-s.eval-s.compile)
		if s.miss {
			compile = append(compile, s.compile)
		}
	}
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	return map[string]float64{
		"net.transport_ms": ms(mean(transport)),
		"serve.handler_ms": ms(mean(handler)),
		"serve.other_ms":   ms(mean(other)),
		"serve.eval_ms":    ms(mean(eval)),
		"serve.compile_ms": ms(mean(compile)),
		"cache.hit_frac":   ratio(hits, hits+misses),
		"cache.misses":     misses,
		"cache.evictions":  float64(after.Evictions - before.Evictions),
	}
}
