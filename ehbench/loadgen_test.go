package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

var testIDs = []string{"2", "5", "tail"}

// The request mix is a function of the seed alone.
func TestMixScheduleReproducible(t *testing.T) {
	a := mixSchedule(7, 500, 400, testIDs)
	b := mixSchedule(7, 500, 400, testIDs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, mixSchedule(8, 500, 400, testIDs)) {
		t.Fatal("different seeds, same schedule")
	}
}

// Requests are due at a fixed rate, and every block of ten is five
// figure hits, three model and two sweep queries.
func TestMixScheduleShape(t *testing.T) {
	const n, rate = 2000, 400.0
	reqs := mixSchedule(1, n, rate, testIDs)
	count := map[reqKind]int{}
	for i, r := range reqs {
		if want := time.Duration(float64(i) / rate * float64(time.Second)); r.Due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.Due, want)
		}
		count[r.Kind]++
		if i%10 == 9 {
			if count[kindHit] != 5 || count[kindModel] != 3 || count[kindSweep] != 2 {
				t.Fatalf("block ending at %d: %v", i, count)
			}
			count = map[reqKind]int{}
		}
	}
	if reqs[0].Kind == reqs[10].Kind && reqs[1].Kind == reqs[11].Kind && reqs[2].Kind == reqs[12].Kind && reqs[3].Kind == reqs[13].Kind {
		t.Error("blocks are not shuffled")
	}
}

// A stall is charged to the requests queued behind it: latency runs
// from the due time, not from when the request was finally sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok")) //nolint:errcheck // test server
	}))
	defer srv.Close()
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * 10 * time.Millisecond, Kind: kindModel, Path: "/"}
	}
	clients := newClients(1)
	defer closeClients(clients)
	res := runOpenLoop(context.Background(), clients, srv.URL, reqs, nil, 0)
	for i, o := range res.Out {
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("request %d: %v status %d", i, o.Err, o.Status)
		}
		if o.Lat < o.Late+o.Service-time.Microsecond || o.Lat > o.Late+o.Service+time.Microsecond {
			t.Errorf("request %d: latency %v is not lateness %v + service %v", i, o.Lat, o.Late, o.Service)
		}
	}
	// Request 1 was due 10 ms in but could only go out after the 60 ms
	// stall: it ran ≥ 50 ms late and its latency counts that wait.
	if o := res.Out[1]; o.Late < stall-10*time.Millisecond-5*time.Millisecond || o.Lat < o.Late {
		t.Errorf("request 1: late %v, latency %v; want ≥ 45ms late", o.Late, o.Lat)
	}
	if res.BacklogMax < 2 {
		t.Errorf("backlog max %d, want ≥ 2 behind the stall", res.BacklogMax)
	}
	if res.Out[0].Late > 5*time.Millisecond {
		t.Errorf("first request %v late", res.Out[0].Late)
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := make([]outcome, 100)
	growing := make([]outcome, 100)
	for i := range growing {
		growing[i].Late = time.Duration(i) * time.Millisecond
	}
	if backlogGrew(steady, 5*time.Millisecond) {
		t.Error("steady step judged growing")
	}
	if !backlogGrew(growing, 5*time.Millisecond) {
		t.Error("growing step judged steady")
	}
}
