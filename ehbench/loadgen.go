package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The steady phase of the service mix is an open loop: requests are due
// on a fixed schedule whether or not earlier ones have returned, the way
// independent users arrive, and each is timed from when it was due, so a
// stall is charged to every request queued behind it.

type reqKind int

const (
	kindHit   reqKind = iota // a figure already filled: the response cache
	kindModel                // /v1/model: the handler with no cache
	kindSweep                // /v1/sweep: the handler with no cache
)

func (k reqKind) String() string {
	return [...]string{"hit", "model", "sweep"}[k]
}

// request is one scheduled request of the mix.
type request struct {
	Due  time.Duration // offset from the start of the step
	Kind reqKind
	Path string // path and query
	// TauB, AlphaB and Hi are the model/sweep parameters, kept to check
	// the response against the model evaluated in-process.
	TauB, AlphaB, Hi float64
}

// sweepPoints is the size of every /v1/sweep query, so that a query's
// cost does not depend on the seed.
const sweepPoints = 64

// mixSchedule draws n requests due at a fixed rate per second. Every
// block of ten holds five repeated figure requests over ids, three
// model queries and two sweeps, in an order, with figure IDs and model
// parameters, taken from the seed.
func mixSchedule(seed int64, n int, rate float64, ids []string) []request {
	rng := rand.New(rand.NewSource(seed))
	block := []reqKind{kindHit, kindHit, kindHit, kindHit, kindHit, kindModel, kindModel, kindModel, kindSweep, kindSweep}
	reqs := make([]request, n)
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &reqs[i]
		r.Due = time.Duration(float64(i) / rate * float64(time.Second))
		r.Kind = block[i%len(block)]
		switch r.Kind {
		case kindHit:
			r.Path = figurePath(ids[rng.Intn(len(ids))])
		case kindModel:
			r.TauB = math.Pow(10, 3*rng.Float64())
			r.AlphaB = 0.01 + 0.49*rng.Float64()
			r.Path = "/v1/model?tau_b=" + fmtFloat(r.TauB) + "&alpha_b=" + fmtFloat(r.AlphaB)
		case kindSweep:
			r.TauB = math.Pow(10, 3*rng.Float64())
			r.Hi = math.Pow(10, 2+2*rng.Float64())
			r.Path = "/v1/sweep?tau_b=" + fmtFloat(r.TauB) + "&lo=1&hi=" + fmtFloat(r.Hi) + "&n=" + strconv.Itoa(sweepPoints)
		}
	}
	return reqs
}

func figurePath(id string) string { return "/v1/figure?id=" + id + "&quick=true" }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// outcome is one completed request of an open-loop step.
type outcome struct {
	Lat     time.Duration // due → response read
	Late    time.Duration // due → sent: how late the generator ran
	Service time.Duration // sent → response read
	Status  int
	Cache   string // X-EH-Cache
	Trace   string // X-EH-Trace sent, when the request was sampled
	Body    []byte // kept for model/sweep checks and failed hits only
	Err     error
}

// stepResult is one open-loop step.
type stepResult struct {
	Out        []outcome // indexed like the schedule
	BacklogMax int       // most requests due but not yet sent
	Wall       time.Duration
}

// waitUntil returns at t. time.Sleep wakes ≈0.7 ms late on Linux
// (the netpoller's millisecond timeout), which would be charged to
// every request, so the wait is a nanosleep to just short of t — which
// wakes within ≈0.1 ms — and a yield loop over the remainder.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only spins longer
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is the nanosleep's typical overshoot.
const spinWindow = 150 * time.Microsecond

// hitCheck reports whether a figure body matches what the fill served.
type hitCheck func(path string, body []byte) bool

// sameAs checks figure bodies against a fill's, by request path.
func sameAs(fill map[string][]byte) hitCheck {
	return func(path string, body []byte) bool {
		want, ok := fill[path]
		return ok && string(want) == string(body)
	}
}

// runOpenLoop sends reqs over one client per connection. Each
// connection takes the next unsent request, waits for its due time if
// early, and sends it. traceEvery > 0 names every traceEvery-th hit's
// trace so the server's span tree can be fetched afterwards.
func runOpenLoop(ctx context.Context, clients []*http.Client, base string, reqs []request, same hitCheck, traceEvery int) stepResult {
	res := stepResult{Out: make([]outcome, len(reqs))}
	dues := make([]time.Duration, len(reqs))
	for i := range reqs {
		dues[i] = reqs[i].Due
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			backlog := 0
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					break
				}
				r := &reqs[i]
				due := start.Add(r.Due)
				waitUntil(due)
				sent := time.Now()
				// Requests due by now but not yet taken by a connection.
				if b := sort.Search(len(dues), func(j int) bool { return dues[j] > sent.Sub(start) }) - i - 1; b > backlog {
					backlog = b
				}
				o := &res.Out[i]
				if traceEvery > 0 && r.Kind == kindHit && i%traceEvery == 0 {
					o.Trace = fmt.Sprintf("%016x", uint64(i)+1)
				}
				buf.Reset()
				o.Status, o.Cache, o.Err = getInto(ctx, c, base+r.Path, o.Trace, &buf)
				done := time.Now()
				o.Lat, o.Late, o.Service = done.Sub(due), sent.Sub(due), done.Sub(sent)
				// Hits are compared now and dropped; queries are checked
				// after the step, off the clock.
				if r.Kind != kindHit || o.Err != nil || o.Status != http.StatusOK || !same(r.Path, buf.Bytes()) {
					o.Body = bytes.Clone(buf.Bytes())
				}
			}
			mu.Lock()
			res.BacklogMax = max(res.BacklogMax, backlog)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// get issues one GET and returns the whole body.
func get(ctx context.Context, c *http.Client, url, trace string) (status int, cache string, body []byte, err error) {
	var buf bytes.Buffer
	status, cache, err = getInto(ctx, c, url, trace, &buf)
	return status, cache, buf.Bytes(), err
}

// getInto issues one GET, reading the body into buf.
func getInto(ctx context.Context, c *http.Client, url, trace string, buf *bytes.Buffer) (status int, cache string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	if trace != "" {
		req.Header.Set("X-EH-Trace", trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-EH-Cache"), nil
}

// backlogGrew reports whether the generator fell steadily behind: the
// median lateness over the last tenth of the step exceeds limit. Under
// capacity lateness stays near zero; past it, it grows with every
// request.
func backlogGrew(out []outcome, limit time.Duration) bool {
	k := len(out) / 10
	if k == 0 {
		return false
	}
	lates := make([]float64, 0, k)
	for _, o := range out[len(out)-k:] {
		lates = append(lates, float64(o.Late))
	}
	return median(lates) > float64(limit)
}

// newClients returns n clients, each held to one keep-alive connection.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}
