package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hare/internal/temporal"
)

// waitQueued blocks until n jobs wait in a's queue.
func waitQueued(t *testing.T, a *Admission, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if depth, _ := a.Queue(); depth == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d", n)
		}
	}
}

// acquireAsync starts an Acquire and returns the channel its width arrives
// on once granted.
func acquireAsync(t *testing.T, a *Admission, weight int) <-chan int {
	got := make(chan int, 1)
	go func() {
		w, err := a.Acquire(context.Background(), weight)
		if err != nil {
			t.Error(err)
		}
		got <- w
	}()
	return got
}

// An unhinted job's width is max(1, budget / (admitted + waiting + 1)),
// fixed when it arrives; an explicit width is honoured (clamped); grants
// stay in arrival order.
func TestAdmissionSharesBudget(t *testing.T) {
	ctx := context.Background()

	// An idle server grants the whole budget.
	a := NewAdmission(4)
	if w, err := a.Acquire(ctx, 0); err != nil || w != 4 {
		t.Fatalf("idle unhinted width = %d (%v), want the budget 4", w, err)
	}
	a.Release(4)

	// One admitted job leaves half for the next, two a third; an explicit
	// hint is honoured beside them.
	a = NewAdmission(4)
	first, _ := a.Acquire(ctx, 1)
	if w, _ := a.Acquire(ctx, 0); w != 2 {
		t.Fatalf("second unhinted width = %d, want 4/2 = 2", w)
	}
	if w, _ := a.Acquire(ctx, 1); w != 1 {
		t.Fatalf("explicit workers=1 got %d", w)
	}
	if _, granted := a.Queue(); granted != 4 {
		t.Fatalf("granted = %d, want 1+2+1", granted)
	}
	a.Release(first)
	a.Release(2)
	a.Release(1)
	if w, _ := a.Acquire(ctx, 3); w != 3 {
		t.Fatalf("explicit workers=3 on an idle budget got %d", w)
	}
	a.Release(3)

	// Waiters: each width is the one fixed on arrival, and grants follow
	// arrival order.
	a = NewAdmission(4)
	hold, _ := a.Acquire(ctx, 4)
	wA := acquireAsync(t, a, 0) // 4 / (1 admitted + 0 waiting + 1) = 2
	waitQueued(t, a, 1)
	wB := acquireAsync(t, a, 0) // 4 / (1 + 1 + 1) = 1
	waitQueued(t, a, 2)
	wC := acquireAsync(t, a, 3) // explicit
	waitQueued(t, a, 3)
	wD := acquireAsync(t, a, 0) // 4 / (1 + 3 + 1) = 0, raised to 1
	waitQueued(t, a, 4)
	a.Release(hold)
	// A and B fit (2 + 1); C needs 3 of the 1 left, and D, though it would
	// fit, stays behind C.
	if w := <-wA; w != 2 {
		t.Fatalf("A granted %d, want the 2 fixed on arrival (not the whole idle budget)", w)
	}
	if w := <-wB; w != 1 {
		t.Fatalf("B granted %d, want 1", w)
	}
	select {
	case w := <-wC:
		t.Fatalf("C granted %d past the budget", w)
	case w := <-wD:
		t.Fatalf("D granted %d ahead of C", w)
	default:
	}
	if depth, _ := a.Queue(); depth != 2 {
		t.Fatalf("queue depth = %d, want C and D", depth)
	}
	a.Release(2) // A: C now fits (1 + 3), D does not
	if w := <-wC; w != 3 {
		t.Fatalf("C granted %d, want 3", w)
	}
	a.Release(1) // B
	if w := <-wD; w != 1 {
		t.Fatalf("D granted %d, want 1", w)
	}
	a.Release(3)
	a.Release(1)
	if waits, inflight := a.Stats(); waits != 4 || inflight != 0 {
		t.Fatalf("waits %d inflight %d, want 4 and 0", waits, inflight)
	}
}

// gateBackend holds every count job until the test releases it and tells
// the test each job's granted width.
type gateBackend struct {
	fakeBackend
	jobs chan gatedJob
}

type gatedJob struct {
	client, workers int
	release         chan struct{}
}

func (b *gateBackend) Count(_ context.Context, g *temporal.Graph, req Request) (CountAnswer, error) {
	b.enter()
	defer b.exit()
	j := gatedJob{client: int(req.Delta / 1000), workers: req.Workers, release: make(chan struct{})}
	b.jobs <- j
	<-j.release
	return CountAnswer{Workers: req.Workers}, nil
}

// Two closed-loop clients of unhinted jobs on a budget of 2 run side by
// side at one worker each, not in turns at two. The first job takes the
// idle budget; the second, arriving beside it, gets half and queues. From
// then on every job arrives while the other client's job runs, so each
// gets 1 and is admitted at once. The backend holds each job until the
// other client's next job has been admitted, which makes that overlap
// certain instead of likely.
func TestAdmissionClosedLoopRunsSideBySide(t *testing.T) {
	fb := &gateBackend{jobs: make(chan gatedJob)}
	s, _ := newTestServer(t, Options{Backend: fb, WorkerBudget: 2})
	const perClient = 12
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := httptest.NewRecorder()
				url := fmt.Sprintf("/v1/count?dataset=tiny&delta=%d", 1000*c+i)
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("client %d request %d: HTTP %d", c, i, rec.Code)
				}
			}
		}(c)
	}

	first := <-fb.jobs
	if first.workers != 2 {
		t.Fatalf("first job on an idle budget got %d workers, want 2", first.workers)
	}
	waitQueued(t, s.admission, 1) // the other client's first job, at width 1
	close(first.release)
	received := [2]int{}
	received[first.client]++
	var held []gatedJob
	beside := 0 // jobs that arrived while the other client's job ran
	for jobs := 1; jobs < 2*perClient || len(held) > 0; {
		// Hold one job per client, unless the other client has no job
		// left to send.
		if len(held) == 0 || (len(held) == 1 && received[1-held[0].client] < perClient) {
			j := <-fb.jobs
			jobs++
			received[j.client]++
			// A job that arrives once the other client is through may run
			// alone; the rest must share.
			if len(held) == 1 || jobs == 2 {
				beside++
				if j.workers != 1 {
					t.Errorf("job %d (client %d) got %d workers beside another job, want 1", jobs, j.client, j.workers)
				}
			}
			held = append(held, j)
			continue
		}
		close(held[0].release)
		held = held[1:]
	}
	wg.Wait()
	if beside < 2*perClient-2 {
		t.Fatalf("only %d of %d jobs ran beside another", beside, 2*perClient-1)
	}
	if got := fb.maxSeen.Load(); got > 2 {
		t.Fatalf("%d jobs ran at once on a budget of 2", got)
	}
}
