package workpool

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *Pool[T]) idleWorkers() []*worker[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*worker[T](nil), p.idle...)
}

// TestPoolStartsWorkerWhenNoneIdle parks tasks and checks that each new
// task gets a worker of its own instead of queueing behind them.
func TestPoolStartsWorkerWhenNoneIdle(t *testing.T) {
	release := make(chan struct{})
	var running sync.WaitGroup
	p := New(func(done *sync.WaitGroup) {
		done.Done()
		<-release
	})
	defer p.Close()
	const n = 16
	running.Add(n)
	for range n {
		p.Go(&running)
	}
	waited := make(chan struct{})
	go func() { running.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(3 * time.Second):
		t.Fatal("tasks queued behind parked ones")
	}
	close(release)
	waitFor(t, "all workers idle", func() bool { return len(p.idleWorkers()) == n })
}

// TestPoolReusesMostRecentlyIdle checks the LIFO hand-off: a task goes to
// the worker that went idle last, and the oldest stays at the bottom.
func TestPoolReusesMostRecentlyIdle(t *testing.T) {
	gates := make([]chan struct{}, 3)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	p := New(func(gate chan struct{}) { <-gate })
	defer p.Close()
	for _, g := range gates {
		p.Go(g)
	}
	for i, g := range gates {
		close(g)
		waitFor(t, "worker idle", func() bool { return len(p.idleWorkers()) == i+1 })
	}
	before := p.idleWorkers()
	again := make(chan struct{})
	p.Go(again)
	after := p.idleWorkers()
	if len(after) != 2 || after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("the task did not go to the most recently idle worker")
	}
	close(again)
	waitFor(t, "worker idle", func() bool { return len(p.idleWorkers()) == 3 })
	if got := p.idleWorkers(); got[2] != before[2] {
		t.Fatalf("the worker that ran the task is not back on top")
	}
}

// TestPoolRetiresIdleWorkersOldestFirst idles one worker, then another
// most of a second later, and checks that only the first retires once it
// passes the idle timeout, and the second a little later.
func TestPoolRetiresIdleWorkersOldestFirst(t *testing.T) {
	baseline := runtime.NumGoroutine()
	first, second := make(chan struct{}), make(chan struct{})
	p := New(func(gate chan struct{}) { <-gate })
	defer p.Close()
	p.Go(first)
	p.Go(second)
	close(first)
	waitFor(t, "first worker idle", func() bool { return len(p.idleWorkers()) == 1 })
	oldest := p.idleWorkers()[0]
	t0 := time.Now()
	time.Sleep(idleTimeout * 9 / 10)
	close(second)
	waitFor(t, "second worker idle", func() bool { return len(p.idleWorkers()) == 2 })
	time.Sleep(time.Until(t0.Add(idleTimeout * 3 / 2)))
	idle := p.idleWorkers()
	if len(idle) != 1 || idle[0] == oldest {
		t.Fatalf("after %v: %d idle workers, want the younger one only", time.Since(t0), len(idle))
	}
	waitFor(t, "every worker retired", func() bool {
		return len(p.idleWorkers()) == 0 && runtime.NumGoroutine() <= baseline
	})
}

// TestPoolCloseWaitsForBusyWorkers checks that Close returns only once
// the task in flight has, and leaves no worker behind.
func TestPoolCloseWaitsForBusyWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	started := make(chan struct{})
	p := New(func(busy bool) {
		if busy {
			close(started)
			<-release
		}
	})
	p.Go(false)
	waitFor(t, "worker idle", func() bool { return len(p.idleWorkers()) == 1 })
	p.Go(true)
	<-started
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a task was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	waitFor(t, "no goroutines left", func() bool { return runtime.NumGoroutine() <= baseline })
}
