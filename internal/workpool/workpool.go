// Package workpool runs short tasks on long-lived goroutines.
//
// Starting a goroutine per task looks free, but each new goroutine starts
// on a small stack and grows it again (runtime.newstack, copystack) as soon
// as the task descends into a decoder or a replication round. A pooled
// worker keeps the stack it grew, so a warm pool serves a task with one
// channel send and no allocation.
//
// The pool never queues: a task goes to the most recently idle worker, or
// to a new worker when none is idle. A task that parks (a barrier wait, a
// round held for its predecessor) therefore never delays another one, and
// the number of workers follows the number of tasks in flight. Workers
// idle for longer than idleTimeout retire, oldest first.
package workpool

import (
	"sync"
	"time"
)

// idleTimeout is how long a worker may sit idle before it retires.
const idleTimeout = time.Second

// Pool runs tasks of type T through one function on pooled goroutines.
// It is safe for concurrent use.
type Pool[T any] struct {
	run func(T)

	mu sync.Mutex
	// idle is a LIFO stack: the top (last element) is the most recently
	// idle worker, the one whose stack is most likely still warm in cache,
	// and the bottom is the oldest, the next to retire. Entries are in
	// idleSince order by construction.
	idle    []*worker[T]
	closed  bool
	reaping bool        // reaper is armed
	reaper  *time.Timer // retires the expired bottom of idle
	wg      sync.WaitGroup
}

type worker[T any] struct {
	// tasks has one slot: a worker is handed a task only while it sits
	// on the idle stack, so the send never blocks, and the worker waits
	// on a single-case receive. The pool is its only sender, and closes
	// it to retire the worker, only ever while the worker is on the idle
	// stack, where Go cannot be sending to it.
	tasks     chan T
	idleSince time.Time
}

// New returns a pool that runs every task with run.
func New[T any](run func(T)) *Pool[T] {
	p := &Pool[T]{run: run}
	p.reaper = time.AfterFunc(idleTimeout, p.reap)
	p.reaper.Stop()
	return p
}

// Go runs run(t) on an idle worker, or on a new one when none is idle.
// After Close it still runs t, on a goroutine of its own.
func (p *Pool[T]) Go(t T) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		go p.run(t)
		return
	}
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.tasks <- t
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go p.work(&worker[T]{tasks: make(chan T, 1)}, t)
}

func (p *Pool[T]) work(w *worker[T], t T) {
	defer p.wg.Done()
	for {
		p.run(t)
		var zero T
		t = zero // an idle worker pins nothing of its last task
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		w.idleSince = time.Now()
		p.idle = append(p.idle, w)
		if !p.reaping {
			p.reaping = true
			p.reaper.Reset(idleTimeout)
		}
		p.mu.Unlock()
		var ok bool
		if t, ok = <-w.tasks; !ok {
			return
		}
	}
}

// reap retires the workers idle for longer than idleTimeout and re-arms
// itself for the oldest one left.
func (p *Pool[T]) reap() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reaping = false
	if p.closed {
		return
	}
	now := time.Now()
	n := 0
	for n < len(p.idle) && now.Sub(p.idle[n].idleSince) >= idleTimeout {
		close(p.idle[n].tasks)
		n++
	}
	left := copy(p.idle, p.idle[n:])
	clear(p.idle[left:])
	p.idle = p.idle[:left]
	if left > 0 {
		p.reaping = true
		p.reaper.Reset(idleTimeout - now.Sub(p.idle[0].idleSince))
	}
}

// Close retires every idle worker, makes each busy one exit once its task
// returns, and waits until all of them have.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.reaper.Stop()
		for _, w := range p.idle {
			close(w.tasks)
		}
		p.idle = nil
	}
	p.mu.Unlock()
	p.wg.Wait()
}
