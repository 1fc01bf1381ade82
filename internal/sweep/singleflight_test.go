package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ehmodel/internal/runner"
)

// waitForWaiters polls until n callers wait on key's run.
func waitForWaiters[K comparable, V any](t *testing.T, f *Flight[K, V], key K, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); f.Waiters(key) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters, want %d", f.Waiters(key), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightGroupCollapse exercises the singleflight directly: N
// concurrent calls for one key yield one starter and N−1 followers
// sharing the starter's entry.
func TestFlightGroupCollapse(t *testing.T) {
	var g Flight[Key, *Entry]
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	ent := &Entry{Result: nil}

	// The starter's fn blocks; every follower spawned after `started`
	// finds the in-flight run and waits on it.
	leaderOut := make(chan error, 1)
	go func() {
		e, shared, err := g.Do(context.Background(), key(1), func(context.Context) (*Entry, error) {
			calls.Add(1)
			close(started)
			<-release
			return ent, nil
		})
		if e != ent || shared {
			err = fmt.Errorf("leader: ent=%p shared=%v", e, shared)
		}
		leaderOut <- err
	}()
	<-started

	const followers = 7
	type out struct {
		ent    *Entry
		shared bool
		err    error
	}
	outs := make(chan out, followers)
	for i := 0; i < followers; i++ {
		go func() {
			e, shared, err := g.Do(context.Background(), key(1), func(context.Context) (*Entry, error) {
				calls.Add(1)
				return ent, nil
			})
			outs <- out{e, shared, err}
		}()
	}
	waitForWaiters(t, &g, key(1), 1+followers)
	close(release)

	if err := <-leaderOut; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < followers; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.ent != ent {
			t.Fatal("follower got a different entry")
		}
		if !o.shared {
			t.Fatal("a follower became a leader despite the in-flight call")
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions for 8 concurrent calls", got)
	}
	if n := g.Waiters(key(1)); n != 0 {
		t.Fatalf("%d waiters left on a finished run", n)
	}
}

// TestFlightGroupFollowerCancellation: a follower whose context dies
// stops waiting without killing the leader.
func TestFlightGroupFollowerCancellation(t *testing.T) {
	var g Flight[Key, *Entry]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), key(2), func(context.Context) (*Entry, error) {
			close(started)
			<-release
			return &Entry{}, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.Do(ctx, key(2), func(context.Context) (*Entry, error) {
		t.Error("canceled follower became a leader")
		return nil, nil
	})
	if !shared || err == nil {
		t.Fatalf("shared=%v err=%v, want canceled follower", shared, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// startBlockedRun starts a run for key under a cancelable caller
// context. fn publishes its context on fctx, then returns ("clipped",
// its context's error) once release closes.
func startBlockedRun(t *testing.T, f *Flight[string, string], key string, calls *atomic.Int32, release <-chan struct{}) (fctx context.Context, cancel context.CancelFunc, done <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ctxc := make(chan context.Context, 1)
	errc := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, key, func(ctx context.Context) (string, error) {
			calls.Add(1)
			ctxc <- ctx
			<-release
			return "clipped", ctx.Err()
		})
		errc <- err
	}()
	return <-ctxc, cancel, errc
}

// TestFlightCancelsAfterLastWaiter: the run's context outlives every
// caller but the last — the starter included — and is cancelled once
// the last waiter leaves.
func TestFlightCancelsAfterLastWaiter(t *testing.T) {
	var f Flight[string, string]
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	fctx, cancel1, done1 := startBlockedRun(t, &f, "k", &calls, release)

	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx2, "k", func(context.Context) (string, error) {
			t.Error("second caller started a run")
			return "", nil
		})
		done2 <- err
	}()
	waitForWaiters(t, &f, "k", 2)

	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("starter: %v, want context.Canceled", err)
	}
	if fctx.Err() != nil {
		t.Fatal("starter leaving cancelled the run while a waiter remained")
	}
	cancel2()
	if err := <-done2; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower: %v, want context.Canceled", err)
	}
	if fctx.Err() == nil {
		t.Fatal("run still live after its last waiter left")
	}
	if n := f.Waiters("k"); n != 0 {
		t.Fatalf("%d waiters after everyone left", n)
	}
}

// TestFlightFreshRunAfterCancel: a caller arriving after the last
// waiter left starts a fresh run instead of joining the cancelled one,
// even while that one has yet to return.
func TestFlightFreshRunAfterCancel(t *testing.T) {
	var f Flight[string, string]
	var calls atomic.Int32
	release := make(chan struct{})
	fctx, cancel, done := startBlockedRun(t, &f, "k", &calls, release)
	cancel()
	<-done
	if fctx.Err() == nil {
		t.Fatal("abandoned run not cancelled")
	}

	v, shared, err := f.Do(context.Background(), "k", func(context.Context) (string, error) {
		calls.Add(1)
		return "fresh", nil
	})
	close(release) // the abandoned run returns its clipped result to no one
	if err != nil || shared || v != "fresh" {
		t.Fatalf("got %q shared=%v err=%v, want a fresh run", v, shared, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d runs, want 2", got)
	}
}

// TestFlightPanic: a panicking run reaches every waiter as a
// *runner.PanicError and releases its key, so the next call runs
// afresh instead of blocking.
func TestFlightPanic(t *testing.T) {
	var f Flight[string, string]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release := make(chan struct{})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := f.Do(ctx, "k", func(context.Context) (string, error) {
				<-release
				panic("boom")
			})
			errs <- err
		}()
	}
	waitForWaiters(t, &f, "k", 2)
	close(release)
	for i := 0; i < 2; i++ {
		var pe *runner.PanicError
		if err := <-errs; !errors.As(err, &pe) || pe.Value != "boom" {
			t.Fatalf("waiter %d: %v, want *runner.PanicError", i, err)
		}
	}

	v, _, err := f.Do(ctx, "k", func(context.Context) (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("after panic: %q %v", v, err)
	}
}
