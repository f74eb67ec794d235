package server

import (
	"container/list"
	"context"
	"sync"
)

// Admission is a weighted FIFO semaphore bounding the total worker budget
// of concurrently running counting jobs. A job of weight w (its worker
// count) blocks until w budget units are free; waiters are granted strictly
// in arrival order so a wide job cannot be starved by a stream of narrow
// ones.
//
// A job that names no width gets a share, fixed when it arrives:
// max(1, budget / (jobs admitted + jobs waiting + 1)). A lone job takes the
// whole budget; the second of two concurrent jobs takes half, and from then
// on two closed-loop clients run side by side instead of taking turns. The
// share is fixed on arrival, not on grant: a job queued behind a full-width
// one would otherwise find nothing running when its turn came and take the
// whole budget again, and two clients would alternate forever. Answers are
// bit-identical at any width, so the width never changes a result.
type Admission struct {
	mu      sync.Mutex
	budget  int
	used    int
	waiters *list.List // of *waiter, front = oldest

	waits    uint64 // acquisitions that had to block
	inflight int    // jobs currently admitted
	granted  uint64 // worker units granted, summed over admitted jobs
}

type waiter struct {
	weight int
	ready  chan struct{}
}

// NewAdmission returns a controller with the given worker budget (>= 1).
func NewAdmission(budget int) *Admission {
	if budget < 1 {
		budget = 1
	}
	return &Admission{budget: budget, waiters: list.New()}
}

// Budget returns the total worker budget.
func (a *Admission) Budget() int { return a.budget }

// Acquire blocks until the job's width is free or ctx is done, and returns
// the width; pass it to Release. A weight >= 1 is an explicit width,
// clamped to the budget; a weight <= 0 asks for the share (see Admission).
func (a *Admission) Acquire(ctx context.Context, weight int) (int, error) {
	a.mu.Lock()
	if weight < 1 {
		weight = max(1, a.budget/(a.inflight+a.waiters.Len()+1))
	}
	weight = min(weight, a.budget)
	if a.waiters.Len() == 0 && a.used+weight <= a.budget {
		a.admit(weight)
		a.mu.Unlock()
		return weight, nil
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := a.waiters.PushBack(w)
	a.waits++
	a.mu.Unlock()

	select {
	case <-w.ready:
		return weight, nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ready:
			// Granted between ctx.Done and taking the lock: the units are
			// ours, so hand them back rather than leak them.
			a.used -= weight
			a.inflight--
			a.grant()
		default:
			a.waiters.Remove(elem)
			// Our departure may unblock a narrower waiter behind us.
			a.grant()
		}
		a.mu.Unlock()
		return 0, ctx.Err()
	}
}

// Release returns weight units to the budget and wakes eligible waiters.
func (a *Admission) Release(weight int) {
	a.mu.Lock()
	a.used -= weight
	a.inflight--
	a.grant()
	a.mu.Unlock()
}

// grant admits waiters from the front of the queue while budget lasts.
// Callers hold a.mu.
func (a *Admission) grant() {
	for a.waiters.Len() > 0 {
		w := a.waiters.Front().Value.(*waiter)
		if a.used+w.weight > a.budget {
			return
		}
		a.waiters.Remove(a.waiters.Front())
		a.admit(w.weight)
		close(w.ready)
	}
}

// admit books an admitted job of the given width. Callers hold a.mu.
func (a *Admission) admit(weight int) {
	a.used += weight
	a.inflight++
	a.granted += uint64(weight)
}

// Stats returns the cumulative blocked-acquire count and current admitted
// job count.
func (a *Admission) Stats() (waits uint64, inflight int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waits, a.inflight
}

// Queue returns the number of jobs waiting now and the worker units granted
// since start: granted over admitted jobs is the mean job width.
func (a *Admission) Queue() (waiting int, granted uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters.Len(), a.granted
}
