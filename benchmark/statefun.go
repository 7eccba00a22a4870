package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"crucial"
)

// statefunInstances is the population of the counting function. Every
// instance is touched once in set-up, so the dispatch directory the
// engine polls holds all of them during the measured window.
//
// statefunCallers is how many calls are outstanding at once: one per core
// of the reference box, where the other workloads have eight.
//
// The issue sized this workload at 1000 instances and 8 callers. One Call
// already keeps the engine's 8 workers and the three nodes busy with about
// 7 drain passes and 15 DSO round trips, and every instance is polled four
// times a second whether or not it has mail. With 8 callers both cores
// are saturated and the polls compete with the calls for them, so a
// machine that slows down slows the calls more than in proportion: with a
// third of the CPU taken away, op_p99_us rose 127 % and ops_per_s fell
// 45 % at 250 instances and 8 callers, against 46 % and 22 % at 100 and 2
// (README, calibration.txt). The driver measured a run-to-run spread of
// 21-27 % on op_p99_us at 250 and 8, above the widest bound it accepts.
// At 100 instances and 2 callers a call still waits for a poll tick and
// pays the same 7 drain passes, idle polls among them, so an event-driven
// dispatch will show.
const (
	statefunInstances = 100
	statefunCallers   = clientConns
)

type countState struct {
	N int64
}

// statefunInstance runs statefun_call: one operation is
// StatefulFunction.Call(id, "add") on a uniformly random instance — push,
// discover, dispatch, handler commit, reply future.
type statefunInstance struct {
	rt    *crucial.Runtime
	trace *tracer
	fn    *crucial.StatefulFunction
	gens  []*opGen

	handled atomic.Int64 // handler runs, to know when set-up has drained
	// Calls issued by -curve's open loop, which the recorder does not see.
	openOK, openFailed atomic.Int64

	*callerLoops
}

func bootStatefunCall(env runEnv) (instance, error) {
	opts := crucial.Options{DSONodes: 3, RF: 2, Durability: crucial.DefaultDurabilityPolicy()}
	if env.trace != nil {
		opts.Telemetry = env.trace.tel
	}
	rt, err := crucial.NewLocalRuntime(opts)
	if err != nil {
		return nil, err
	}
	s := &statefunInstance{rt: rt, trace: env.trace, callerLoops: newCallerLoops(statefunCallers)}
	s.fn, err = rt.DeployStatefulFunction("count", func(c *crucial.FnCtx, m crucial.FnMsg) error {
		s.handled.Add(1)
		if m.Name() != "add" {
			return fmt.Errorf("unknown message %q", m.Name())
		}
		var st countState
		if _, err := c.State(&st); err != nil {
			return err
		}
		st.N++
		if err := c.SetState(&st); err != nil {
			return err
		}
		if m.ReplyKey() == "" {
			return nil
		}
		return c.Reply(st.N)
	})
	if err != nil {
		s.close()
		return nil, err
	}
	for c := 0; c < statefunCallers; c++ {
		gen, err := newOpGen("statefun_call", env.seed, c)
		if err != nil {
			s.close()
			return nil, err
		}
		s.gens = append(s.gens, gen)
	}
	if err := s.populate(); err != nil {
		s.close()
		return nil, fmt.Errorf("populate: %w", err)
	}
	return s, nil
}

// populate touches every instance once with a fire-and-forget add and
// waits until the engine has run them all.
func (s *statefunInstance) populate() error {
	err := eachCaller(func(c int) error {
		for i := c; i < statefunInstances; i += callers {
			if err := s.fn.Send(s.ctx, strconv.Itoa(i), "add", nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Minute)
	for s.handled.Load() < statefunInstances {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d set-up messages were handled", s.handled.Load(), statefunInstances)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (s *statefunInstance) start(rec *recorder) {
	s.run(func(c int) {
		var reply int64
		o := s.gens[c].next()
		begin := time.Now()
		sp := s.trace.begin("statefun.call")
		err := s.fn.Call(s.ctx, strconv.Itoa(int(o.Key)), "add", nil, &reply)
		sp.end()
		rec.record(c, begin, err)
	})
}

// openOp issues one call for the open-loop diagnostic.
func (s *statefunInstance) openOp(_ int, o op, _ []byte) error {
	var reply int64
	err := s.fn.Call(s.ctx, strconv.Itoa(int(o.Key)), "add", nil, &reply)
	if err != nil {
		s.openFailed.Add(1)
	} else {
		s.openOK.Add(1)
	}
	return err
}

// check sums every instance's durable count: each set-up touch and each
// acknowledged call must be in it exactly once.
func (s *statefunInstance) check(rec *recorder) error {
	ok, failed := rec.totals()
	ok, failed = ok+s.openOK.Load(), failed+s.openFailed.Load()
	var sum int64
	for i := 0; i < statefunInstances; i++ {
		var st countState
		if _, err := s.fn.State(s.ctx, strconv.Itoa(i), &st); err != nil {
			return fmt.Errorf("read state of instance %d: %w", i, err)
		}
		sum += st.N
	}
	if lo, hi := ok+statefunInstances, ok+statefunInstances+failed; sum < lo || sum > hi {
		return fmt.Errorf("instance counts total %d, want within [%d, %d]", sum, lo, hi)
	}
	return nil
}

func (s *statefunInstance) close() {
	s.stop()
	_ = s.rt.Close() // tear-down
	s.cancel()
}
