package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehmodel/internal/experiments"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

func testServer() *server {
	return newServer(sweep.NewExecutor(sweep.NewMemStore(0)), runner.Options{}, time.Minute)
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestFigureResponseCached: the same figure query twice must yield
// byte-identical responses, the second answered from the response cache.
func TestFigureResponseCached(t *testing.T) {
	h := testServer().handler()
	r1 := get(t, h, "/v1/figure?id=3")
	if r1.Code != http.StatusOK {
		t.Fatalf("first: %d %s", r1.Code, r1.Body.String())
	}
	if got := r1.Header().Get(cacheHeader); got != "miss" {
		t.Fatalf("first %s = %q, want miss", cacheHeader, got)
	}
	r2 := get(t, h, "/v1/figure?id=3")
	if r2.Code != http.StatusOK {
		t.Fatalf("second: %d", r2.Code)
	}
	if got := r2.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("second %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatal("cached response differs from generated response")
	}
	var resp figureResponse
	if err := json.Unmarshal(r2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Figures) != 1 || resp.Figures[0].ID != "fig3" {
		t.Fatalf("unexpected payload: %+v", resp)
	}
}

// TestFigureSingleflight: concurrent identical queries collapse onto a
// single generation; followers share the leader's bytes.
func TestFigureSingleflight(t *testing.T) {
	s := testServer()
	var calls atomic.Int32
	release := make(chan struct{})
	s.generate = func(ctx context.Context, which string, quick bool, run runner.Options) ([]*experiments.Figure, []experiments.Failure) {
		calls.Add(1)
		<-release
		return experiments.GenerateFigures(ctx, which, quick, run)
	}
	h := s.handler()

	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, h, "/v1/figure?id=2")
		}(i)
	}
	// Let every request join the flight before the generation finishes.
	waitForWaiters(t, s, "figure|id=2|quick=false", n)
	if got := calls.Load(); got != 1 {
		t.Fatalf("flight never formed: %d calls", got)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d generations for %d identical concurrent requests", got, n)
	}
	miss, coalesced := 0, 0
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d: body differs", i)
		}
		switch rec.Header().Get(cacheHeader) {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			// a request that arrived after the leader finished
		}
	}
	if miss != 1 {
		t.Fatalf("%d misses, want exactly 1 leader", miss)
	}
	if coalesced == 0 {
		t.Fatal("no request was coalesced onto the leader")
	}
}

// TestFigureFailureNotCached: a generation that reports failures is a
// 500 and must not be replayed from the response cache.
func TestFigureFailureNotCached(t *testing.T) {
	s := testServer()
	var calls atomic.Int32
	s.generate = func(ctx context.Context, which string, quick bool, run runner.Options) ([]*experiments.Figure, []experiments.Failure) {
		calls.Add(1)
		return nil, []experiments.Failure{{ID: which, Err: fmt.Errorf("transient")}}
	}
	h := s.handler()
	for i := 0; i < 2; i++ {
		rec := get(t, h, "/v1/figure?id=5")
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: %d, want 500", i, rec.Code)
		}
		if got := rec.Header().Get(cacheHeader); got != "miss" {
			t.Fatalf("request %d: %s = %q, want miss (failures are uncacheable)", i, cacheHeader, got)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("failed generation was cached: %d calls", calls.Load())
	}
}

// waitForWaiters polls until n requests wait on the generation for key.
func waitForWaiters(t *testing.T, s *server, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.flights.Waiters(key) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting, want %d", s.flights.Waiters(key), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFigureStarterDisconnect: the client that started a generation
// disconnecting gets a 504 at once, and a request coalesced onto the
// same generation still gets a 200 with no failures from that one
// generation.
func TestFigureStarterDisconnect(t *testing.T) {
	s := testServer()
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	s.generate = func(ctx context.Context, which string, quick bool, run runner.Options) ([]*experiments.Figure, []experiments.Failure) {
		calls.Add(1)
		close(started)
		<-release
		if err := ctx.Err(); err != nil {
			return nil, []experiments.Failure{{ID: which, Err: err}}
		}
		return experiments.GenerateFigures(ctx, which, quick, run)
	}
	h := s.handler()

	ctx1, cancel1 := context.WithCancel(context.Background())
	rec1 := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("GET", "/v1/figure?id=2", nil).WithContext(ctx1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		rec1 <- rec
	}()
	<-started
	rec2 := make(chan *httptest.ResponseRecorder, 1)
	go func() { rec2 <- get(t, h, "/v1/figure?id=2") }()
	waitForWaiters(t, s, "figure|id=2|quick=false", 2)

	cancel1()
	select {
	case rec := <-rec1:
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("disconnected request: %d, want 504", rec.Code)
		}
	case <-time.After(5 * time.Second):
		t.Error("disconnected request still waiting on the generation")
	}
	close(release)

	rec := <-rec2
	if rec.Code != http.StatusOK {
		t.Fatalf("coalesced request: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(cacheHeader); got != "coalesced" {
		t.Fatalf("%s = %q, want coalesced", cacheHeader, got)
	}
	var resp figureResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Failures) != 0 || len(resp.Figures) != 1 {
		t.Fatalf("coalesced request got %d figures, failures %+v", len(resp.Figures), resp.Failures)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d generations, want 1", got)
	}
}

func TestFigureBadRequests(t *testing.T) {
	h := testServer().handler()
	for _, url := range []string{"/v1/figure", "/v1/figure?id=nope", "/v1/figure?id=3&quick=maybe"} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", url, rec.Code)
		}
	}
}

// TestModelQuery: a closed-form evaluation echoes the overlaid params
// and returns Eq. 8 outputs in range.
func TestModelQuery(t *testing.T) {
	h := testServer().handler()
	rec := get(t, h, "/v1/model?tau_b=10&alpha_b=0.1")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	var resp modelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Params.TauB != 10 {
		t.Fatalf("params not overlaid: τ_B = %g", resp.Params.TauB)
	}
	if resp.Progress <= 0 || resp.Progress >= 1 {
		t.Fatalf("progress %g out of range", resp.Progress)
	}
	if resp.ProgressLo > resp.Progress || resp.Progress > resp.ProgressHi {
		t.Fatalf("bounds %g..%g do not bracket %g", resp.ProgressLo, resp.ProgressHi, resp.Progress)
	}
	if resp.TauBOpt <= 0 {
		t.Fatal("no τ_B,opt")
	}
	if rec := get(t, h, "/v1/model?tau_b=-1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid τ_B accepted: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/model?tau_b=abc"); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric τ_B accepted: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/model?e=1e308"); rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing E accepted: %d", rec.Code)
	}
}

// TestSweepQuery: the τ_B sweep returns the requested grid and its
// argmax near the analytic optimum.
func TestSweepQuery(t *testing.T) {
	h := testServer().handler()
	rec := get(t, h, "/v1/sweep?lo=1&hi=1000&n=200")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	var resp sweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 200 {
		t.Fatalf("%d points", len(resp.Points))
	}
	if resp.Best.P <= 0 {
		t.Fatal("no progress anywhere on the sweep")
	}
	if ratio := resp.Best.X / resp.TauBOpt; ratio < 0.5 || ratio > 2 {
		t.Fatalf("sweep argmax τ_B=%g far from analytic optimum %g", resp.Best.X, resp.TauBOpt)
	}
	for _, url := range []string{
		"/v1/sweep?lo=0", "/v1/sweep?lo=10&hi=1", "/v1/sweep?n=1",
		"/v1/sweep?space=cubic", "/v1/sweep?dead=sometimes",
		"/v1/sweep?lo=NaN", "/v1/sweep?hi=Inf", "/v1/sweep?space=lin&lo=NaN",
		"/v1/sweep?lo=5&hi=5", "/v1/sweep?e=1e308",
	} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", url, rec.Code)
		}
	}
}

// TestMetricsEndpoint: served requests show up in /metrics, along with
// the result store's counters.
func TestMetricsEndpoint(t *testing.T) {
	h := testServer().handler()
	get(t, h, "/v1/model?tau_b=10")
	get(t, h, "/v1/figure?id=nope") // a 400, counted as an error
	rec := get(t, h, "/metrics?format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d", rec.Code)
	}
	var m struct {
		Requests      uint64 `json:"requests"`
		RequestErrors uint64 `json:"request_errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests < 2 {
		t.Fatalf("requests = %d, want ≥ 2", m.Requests)
	}
	if m.RequestErrors < 1 {
		t.Fatalf("request_errors = %d, want ≥ 1", m.RequestErrors)
	}
	csv := get(t, h, "/metrics")
	if csv.Code != http.StatusOK || !strings.Contains(csv.Body.String(), "requests") {
		t.Fatalf("CSV export missing request accounting: %d", csv.Code)
	}
}

// FuzzQuery drives the real handler with arbitrary raw query strings on
// the query endpoints. Every answer must be a 200 or a 400: never a 500
// and never a panic. Figure generation is stubbed, so only parsing and
// validation are under test.
func FuzzQuery(f *testing.F) {
	for _, q := range []string{"lo=NaN", "hi=Inf", "lo=5&hi=5", "n=1", "n=1e9", "dead=x", "id=nope", "quick=maybe"} {
		f.Add(q)
	}
	s := testServer()
	s.generate = func(ctx context.Context, which string, quick bool, run runner.Options) ([]*experiments.Figure, []experiments.Failure) {
		return []*experiments.Figure{{ID: which}}, nil
	}
	h := s.handler()
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range []string{"/v1/sweep", "/v1/model", "/v1/figure"} {
			req := httptest.NewRequest("GET", path, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s?%s: %d %s", path, raw, rec.Code, rec.Body.String())
			}
		}
	})
}

func TestHealthz(t *testing.T) {
	rec := get(t, testServer().handler(), "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("%d %s", rec.Code, rec.Body.String())
	}
}
