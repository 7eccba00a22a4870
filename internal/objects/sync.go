package objects

import (
	"errors"
	"fmt"

	"crucial/internal/core"
)

// The synchronization objects mirror java.util.concurrent semantics
// (paper Section 5): calls block server side using the monitor provided by
// the owning node (core.Ctl), exactly like wait()/notify() on a Java
// monitor. They are ephemeral and never replicated (footnote 2 of the
// paper), so they do not implement core.Snapshotter.

// ErrFutureAlreadySet is returned by Future.Set on a completed future.
var ErrFutureAlreadySet = errors.New("objects: future already completed")

// ErrBarrierBroken is returned to waiters when a barrier is reset while
// they wait.
var ErrBarrierBroken = errors.New("objects: barrier broken")

func init() {
	// Callers branch on these with errors.Is after a round trip (e.g. the
	// statefun layer treats an already-completed reply future as
	// delivered), so they must survive the wire as sentinels, not text.
	core.RegisterErrorSentinel(ErrFutureAlreadySet)
	core.RegisterErrorSentinel(ErrBarrierBroken)
}

// CyclicBarrier blocks parties callers until all have arrived, then starts
// a new generation (reusable, like java.util.concurrent.CyclicBarrier).
// Init: parties (int).
type CyclicBarrier struct {
	parties    int64
	count      int64
	generation int64
	broken     bool
}

// NewCyclicBarrier builds the barrier from its init arguments.
func NewCyclicBarrier(init []any) (core.Object, error) {
	parties, err := optInt64(init, 0, 0)
	if err != nil {
		return nil, err
	}
	if parties <= 0 {
		return nil, fmt.Errorf("objects: barrier needs parties > 0, got %d", parties)
	}
	return &CyclicBarrier{parties: parties}, nil
}

// Call dispatches a barrier method.
func (b *CyclicBarrier) Call(ctl core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Await":
		gen := b.generation
		if b.broken {
			return nil, ErrBarrierBroken
		}
		arrival := b.parties - b.count - 1 // Java: index of arrival, parties-1 first
		b.count++
		if b.count == b.parties {
			// Last arrival trips the barrier and starts a new generation.
			b.count = 0
			b.generation++
			ctl.Broadcast()
			return []any{arrival}, nil
		}
		if err := ctl.Wait(func() bool { return b.generation != gen || b.broken }); err != nil {
			return nil, err
		}
		if b.broken {
			return nil, ErrBarrierBroken
		}
		return []any{arrival}, nil
	case "GetParties":
		return []any{b.parties}, nil
	case "GetNumberWaiting":
		return []any{b.count}, nil
	case "Reset":
		// Breaks the current generation: waiters are released with an
		// error, then the barrier is usable again.
		if b.count > 0 {
			b.broken = true
			ctl.Broadcast()
			if err := ctl.Wait(func() bool { return b.count == 0 }); err != nil {
				return nil, err
			}
			b.broken = false
			b.generation++
		}
		return nil, nil
	default:
		return nil, errUnknownMethod("CyclicBarrier", method)
	}
}

// Semaphore is a counting semaphore. Init: permits (int).
type Semaphore struct {
	permits int64
}

// NewSemaphore builds the semaphore from its init arguments.
func NewSemaphore(init []any) (core.Object, error) {
	permits, err := optInt64(init, 0, 0)
	if err != nil {
		return nil, err
	}
	if permits < 0 {
		return nil, fmt.Errorf("objects: semaphore needs permits >= 0, got %d", permits)
	}
	return &Semaphore{permits: permits}, nil
}

// Call dispatches a semaphore method.
func (s *Semaphore) Call(ctl core.Ctl, method string, args []any) ([]any, error) {
	n := int64(1)
	if len(args) > 0 {
		var err error
		if n, err = core.Int64Arg(args, 0); err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("objects: semaphore permits argument must be positive, got %d", n)
		}
	}
	switch method {
	case "Acquire":
		if err := ctl.Wait(func() bool { return s.permits >= n }); err != nil {
			return nil, err
		}
		s.permits -= n
		return nil, nil
	case "TryAcquire":
		if s.permits >= n {
			s.permits -= n
			return []any{true}, nil
		}
		return []any{false}, nil
	case "Release":
		s.permits += n
		ctl.Broadcast()
		return nil, nil
	case "AvailablePermits":
		return []any{s.permits}, nil
	case "DrainPermits":
		drained := s.permits
		s.permits = 0
		return []any{drained}, nil
	default:
		return nil, errUnknownMethod("Semaphore", method)
	}
}

// Future is a single-assignment cell whose Get blocks until completion.
// The Fig. 6 map-phase synchronization uses one Future per mapper (or a
// single Future fed by a server-side aggregate for the auto-reduce
// variant). Take is a Get by the future's one consumer: afterwards the
// future reports Finished and its node frees it, so a later call on the
// key meets a fresh, incomplete future.
type Future struct {
	done  bool
	taken bool
	value any
	errs  string
}

// NewFuture builds an incomplete future.
func NewFuture(_ []any) (core.Object, error) {
	return &Future{}, nil
}

// Call dispatches a future method.
func (f *Future) Call(ctl core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Set":
		if f.done {
			return nil, ErrFutureAlreadySet
		}
		if len(args) > 0 {
			f.value = args[0]
		}
		f.done = true
		ctl.Broadcast()
		return nil, nil
	case "Fail":
		if f.done {
			return nil, ErrFutureAlreadySet
		}
		msg, err := core.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		f.errs = msg
		f.done = true
		ctl.Broadcast()
		return nil, nil
	case "Get", "Take":
		if err := ctl.Wait(func() bool { return f.done }); err != nil {
			return nil, err
		}
		f.taken = f.taken || method == "Take"
		if f.errs != "" {
			return nil, errors.New(f.errs)
		}
		return []any{f.value}, nil
	case "IsDone":
		return []any{f.done}, nil
	case "GetNow":
		if !f.done || f.errs != "" {
			return []any{nil, false}, nil
		}
		return []any{f.value, true}, nil
	default:
		return nil, errUnknownMethod("Future", method)
	}
}

// Finished reports whether the future has been taken.
func (f *Future) Finished() bool { return f.taken }

// CountDownLatch blocks waiters until the count reaches zero.
// Init: count (int).
type CountDownLatch struct {
	count int64
}

// NewCountDownLatch builds the latch from its init arguments.
func NewCountDownLatch(init []any) (core.Object, error) {
	count, err := optInt64(init, 0, 0)
	if err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("objects: latch needs count >= 0, got %d", count)
	}
	return &CountDownLatch{count: count}, nil
}

// Call dispatches a latch method.
func (l *CountDownLatch) Call(ctl core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "CountDown":
		if l.count > 0 {
			l.count--
			if l.count == 0 {
				ctl.Broadcast()
			}
		}
		return []any{l.count}, nil
	case "Await":
		if err := ctl.Wait(func() bool { return l.count == 0 }); err != nil {
			return nil, err
		}
		return nil, nil
	case "GetCount":
		return []any{l.count}, nil
	default:
		return nil, errUnknownMethod("CountDownLatch", method)
	}
}

var (
	_ core.Object   = (*CyclicBarrier)(nil)
	_ core.Object   = (*Semaphore)(nil)
	_ core.Object   = (*Future)(nil)
	_ core.Finisher = (*Future)(nil)
	_ core.Object   = (*CountDownLatch)(nil)
)
