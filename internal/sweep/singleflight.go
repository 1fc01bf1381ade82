package sweep

import (
	"context"
	"runtime/debug"
	"sync"

	"ehmodel/internal/runner"
)

// Flight collapses concurrent calls for the same key onto one run of
// the work, and the run belongs to the work rather than to whichever
// caller started it. The zero value is ready to use. The executor uses
// it per cell key; ehserve uses it per figure request.
//
// The contract:
//   - fn runs on its own goroutine under a context that keeps the first
//     caller's values (trace, ProvLog) but none of any caller's
//     cancellation or deadline.
//   - Every caller, the first included, waits on the run's completion or
//     on its own context, whichever comes first.
//   - When the last waiter leaves, the run's context is cancelled and its
//     key is released, so a later arrival starts a fresh run and is never
//     handed a result clipped by that cancellation.
//   - A panic in fn is recovered into a *runner.PanicError that every
//     waiter receives; the key is released.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightRun[V]
}

// flightRun is one execution of the work and its waiters.
type flightRun[V any] struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int // guarded by the owning Flight's mu
	val     V
	err     error
}

// Do returns the result of fn for key, starting a run unless one is
// already in flight. shared reports whether this caller joined a run
// another caller started. A caller whose context ends stops waiting and
// returns the context's cause.
func (f *Flight[K, V]) Do(ctx context.Context, key K, fn func(ctx context.Context) (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[K]*flightRun[V])
	}
	r, shared := f.m[key]
	if !shared {
		rctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		r = &flightRun[V]{done: make(chan struct{}), cancel: cancel}
		f.m[key] = r
		go f.run(rctx, key, r, fn)
	}
	r.waiters++
	f.mu.Unlock()

	select {
	case <-r.done:
		return r.val, shared, r.err
	case <-ctx.Done():
		f.mu.Lock()
		if r.waiters--; r.waiters == 0 && f.m[key] == r {
			r.cancel()
			delete(f.m, key)
		}
		f.mu.Unlock()
		return v, shared, context.Cause(ctx)
	}
}

// Waiters reports how many callers are waiting on key's run (0 when no
// run is in flight).
func (f *Flight[K, V]) Waiters(key K) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.m[key]; ok {
		return r.waiters
	}
	return 0
}

func (f *Flight[K, V]) run(ctx context.Context, key K, r *flightRun[V], fn func(ctx context.Context) (V, error)) {
	defer func() {
		if p := recover(); p != nil {
			r.err = &runner.PanicError{Value: p, Stack: debug.Stack()}
		}
		f.mu.Lock()
		if f.m[key] == r {
			delete(f.m, key)
		}
		f.mu.Unlock()
		r.cancel()
		close(r.done)
	}()
	r.val, r.err = fn(ctx)
}
