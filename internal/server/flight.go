package server

import (
	"context"
	"fmt"
	"sync"
)

// group is a minimal context-aware singleflight, used by Cache (and
// through it by the result cache and the registry's resident graphs):
// concurrent calls for one key run fn once, and fn receives a context
// that is canceled only when every caller joined on the key has gone —
// one client disconnecting never fails the other members of its flight,
// while a flight nobody is waiting for anymore is shed (its queued
// admission wait aborts with the context).
//
// fn runs in its own goroutine; a panic inside it resolves the flight
// with an error for every caller instead of wedging the key forever.
type group struct {
	mu sync.Mutex
	m  map[string]*call

	joining func(key string) // test hook: runs as a caller enters do
}

type call struct {
	done    chan struct{}
	val     any
	err     error
	cancel  context.CancelFunc
	waiters int // callers currently blocked on done; guarded by group.mu
}

// do returns fn's result for key, running it at most once concurrently.
// shared reports that the call was already in flight when this caller
// arrived. If ctx ends first, do returns ctx.Err() — and cancels the
// flight's context if this was its last waiter.
func (g *group) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, shared bool, err error) {
	if g.joining != nil {
		g.joining(key)
	}
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	c, inFlight := g.m[key]
	if !inFlight {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &call{done: make(chan struct{}), cancel: cancel}
		g.m[key] = c
		go g.run(key, c, fctx, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, inFlight, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			c.cancel()
		}
		g.mu.Unlock()
		return nil, inFlight, ctx.Err()
	}
}

func (g *group) run(key string, c *call, fctx context.Context, fn func(context.Context) (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			// Resolve rather than re-panic: the panic happened on a
			// goroutine no HTTP recovery wraps, and an unresolved flight
			// would block every future caller of this key.
			c.val, c.err = nil, fmt.Errorf("internal: compute panicked: %v", r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.cancel()
		close(c.done)
	}()
	c.val, c.err = fn(fctx)
}
