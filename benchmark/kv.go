package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/objects"
	"crucial/internal/storage/s3sim"
)

// fullStackOptions is the cluster both kv workloads run on: 3 nodes,
// RF 2 and every optional layer on at its default — leases with the
// client cache, group commit, and the WAL-plus-snapshot tier over a
// zero-latency cold store.
func fullStackOptions(store durability.Storage) cluster.Options {
	return cluster.Options{
		Nodes:       3,
		RF:          2,
		LeaseTTL:    2 * time.Second,
		ClientCache: true,
		Write:       core.DefaultWritePolicy(),
		Durability:  core.DefaultDurabilityPolicy(),
		ColdStore:   store,
	}
}

func cellRef(i uint32) core.Ref {
	return core.Ref{Type: objects.TypeKV, Key: "bench/cell/" + strconv.Itoa(int(i))}
}

func counterRef(i uint32) core.Ref {
	return core.Ref{Type: objects.TypeAtomicLong, Key: "bench/counter/" + strconv.Itoa(int(i))}
}

// kvCaller is one closed-loop caller's private state.
type kvCaller struct {
	gen      *opGen
	cli      *client.Client
	written  []uint64 // version this caller last wrote, per cell it owns
	lastSeen []uint64 // highest version this caller has read, per cell
	putBuf   []byte
	incrOK   int64
	incrFail int64
}

// kvInstance runs kv_read_mostly or kv_write_hot.
type kvInstance struct {
	workload string
	clu      *cluster.Cluster
	clients  []*client.Client
	trace    *tracer
	putLen   int
	callers  []*kvCaller
	reads    atomic.Int64
	writes   atomic.Int64
	// Increments and versions issued by -curve's open loop, outside any
	// caller's private state.
	openIncrOK, openIncrFail atomic.Int64
	openVersion              atomic.Uint64

	*callerLoops

	mu        sync.Mutex
	violation error
}

func bootKVReadMostly(env runEnv) (instance, error) {
	return bootKV(env, "kv_read_mostly", readValueLen)
}
func bootKVWriteHot(env runEnv) (instance, error) { return bootKV(env, "kv_write_hot", writeValueLen) }

func bootKV(env runEnv, workload string, putLen int) (instance, error) {
	store := durability.Storage(s3sim.New(s3sim.Options{}))
	opts := fullStackOptions(store)
	if env.trace != nil {
		opts.ColdStore = env.trace.wrapStore(store)
		opts.Telemetry = env.trace.tel
		opts.Chaos = env.trace.engine()
	}
	clu, err := cluster.StartLocal(opts)
	if err != nil {
		return nil, err
	}
	k := &kvInstance{workload: workload, clu: clu, trace: env.trace, putLen: putLen, callerLoops: newCallerLoops(callers)}
	for i := 0; i < clientConns; i++ {
		cli, err := clu.NewClient()
		if err != nil {
			k.close()
			return nil, err
		}
		k.clients = append(k.clients, cli)
	}
	for c := 0; c < callers; c++ {
		gen, err := newOpGen(workload, env.seed, c)
		if err != nil {
			k.close()
			return nil, err
		}
		k.callers = append(k.callers, &kvCaller{
			gen:      gen,
			cli:      k.clients[c/callsPerConn],
			written:  make([]uint64, kvCells),
			lastSeen: make([]uint64, kvCells),
			putBuf:   make([]byte, putLen),
		})
	}
	if err := k.populate(); err != nil {
		k.close()
		return nil, fmt.Errorf("populate: %w", err)
	}
	return k, nil
}

// populate creates every cell at version 0 and every counter at 0, the
// callers sharing the work.
func (k *kvInstance) populate() error {
	return eachCaller(func(c int) error {
		cli := k.callers[c].cli
		buf := make([]byte, readValueLen)
		for i := uint32(c); i < kvCells; i += callers {
			fillValue(buf, i, 0)
			if _, err := cli.InvokeObject(k.ctx, core.Invocation{
				Ref: cellRef(i), Method: "Put", Args: []any{buf}, Persist: true,
			}); err != nil {
				return err
			}
		}
		for i := uint32(c); i < kvCounters; i += callers {
			if _, err := cli.InvokeObject(k.ctx, core.Invocation{
				Ref: counterRef(i), Method: "Set", Args: []any{int64(0)}, Persist: true,
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

func (k *kvInstance) start(rec *recorder) {
	k.run(func(c int) {
		cl := k.callers[c]
		o := cl.gen.next()
		begin := time.Now()
		sp := k.trace.begin("client.invoke")
		err := k.do(cl, o)
		sp.end()
		rec.record(c, begin, err)
	})
}

// do issues one generated operation through client.InvokeObject and
// checks what comes back.
func (k *kvInstance) do(cl *kvCaller, o op) error {
	if o.Kind == opGet {
		k.reads.Add(1)
	} else {
		k.writes.Add(1)
	}
	switch o.Kind {
	case opGet:
		res, err := cl.cli.InvokeObject(k.ctx, core.Invocation{Ref: cellRef(o.Key), Method: "Get", Persist: true})
		if err != nil {
			return err
		}
		k.checkRead(cl, o.Key, res)
		return nil
	case opPut:
		version := cl.written[o.Key] + 1
		fillValue(cl.putBuf, o.Key, version)
		_, err := cl.cli.InvokeObject(k.ctx, core.Invocation{
			Ref: cellRef(o.Key), Method: "Put", Args: []any{cl.putBuf}, Persist: true,
		})
		// A failed write may or may not have landed: the next attempt
		// takes the next version either way, so stored versions only grow.
		cl.written[o.Key] = version
		return err
	default:
		_, err := cl.cli.InvokeObject(k.ctx, core.Invocation{Ref: counterRef(o.Key), Method: "IncrementAndGet", Persist: true})
		if err != nil {
			cl.incrFail++
		} else {
			cl.incrOK++
		}
		return err
	}
}

// checkRead verifies that a value read carries its own key and a version
// this caller has not seen a later one of.
func (k *kvInstance) checkRead(cl *kvCaller, key uint32, res []any) {
	fail := func(format string, args ...any) {
		k.mu.Lock()
		if k.violation == nil {
			k.violation = fmt.Errorf(format, args...)
		}
		k.mu.Unlock()
	}
	if len(res) != 2 {
		fail("Get of cell %d returned %d results", key, len(res))
		return
	}
	data, _ := res[0].([]byte)
	if set, _ := res[1].(bool); !set {
		fail("Get of populated cell %d found it unset", key)
		return
	}
	gotKey, version, err := parseValue(data)
	switch {
	case err != nil:
		fail("%v", err)
	case gotKey != key:
		fail("Get of cell %d returned the value of cell %d", key, gotKey)
	case version < cl.lastSeen[key]:
		fail("cell %d went back from version %d to %d for one caller", key, cl.lastSeen[key], version)
	default:
		cl.lastSeen[key] = version
	}
}

// openOp issues one operation for the open-loop diagnostic. Any goroutine
// may write any cell there, so reads check the value's key and pattern
// but not its version.
func (k *kvInstance) openOp(conn int, o op, buf []byte) error {
	cli := k.clients[conn]
	switch o.Kind {
	case opGet:
		res, err := cli.InvokeObject(k.ctx, core.Invocation{Ref: cellRef(o.Key), Method: "Get", Persist: true})
		if err != nil {
			return err
		}
		if len(res) != 2 {
			return fmt.Errorf("Get of cell %d returned %d results", o.Key, len(res))
		}
		data, _ := res[0].([]byte)
		if gotKey, _, err := parseValue(data); err != nil || gotKey != o.Key {
			return fmt.Errorf("Get of cell %d returned the value of cell %d (%v)", o.Key, gotKey, err)
		}
		return nil
	case opPut:
		buf = buf[:k.putLen]
		fillValue(buf, o.Key, k.openVersion.Add(1))
		_, err := cli.InvokeObject(k.ctx, core.Invocation{Ref: cellRef(o.Key), Method: "Put", Args: []any{buf}, Persist: true})
		return err
	default:
		_, err := cli.InvokeObject(k.ctx, core.Invocation{Ref: counterRef(o.Key), Method: "IncrementAndGet", Persist: true})
		if err != nil {
			k.openIncrFail.Add(1)
		} else {
			k.openIncrOK.Add(1)
		}
		return err
	}
}

// check reports the first read violation; on kv_write_hot it also
// compares the counters' final sum with the increments acknowledged.
func (k *kvInstance) check(*recorder) error {
	k.mu.Lock()
	violation := k.violation
	k.mu.Unlock()
	if violation != nil || k.workload != "kv_write_hot" {
		return violation
	}
	acked, failed := k.openIncrOK.Load(), k.openIncrFail.Load()
	var sum int64
	for _, cl := range k.callers {
		acked += cl.incrOK
		failed += cl.incrFail
	}
	for i := uint32(0); i < kvCounters; i++ {
		res, err := k.clients[0].InvokeObject(k.ctx, core.Invocation{Ref: counterRef(i), Method: "Get", Persist: true})
		if err != nil {
			return fmt.Errorf("read counter %d: %w", i, err)
		}
		if len(res) != 1 {
			return fmt.Errorf("counter %d returned %v", i, res)
		}
		v, ok := res[0].(int64)
		if !ok {
			return fmt.Errorf("counter %d returned %v", i, res)
		}
		sum += v
	}
	if sum < acked || sum > acked+failed {
		return fmt.Errorf("counters sum to %d, want within [%d acknowledged, +%d failed]", sum, acked, failed)
	}
	return nil
}

func (k *kvInstance) mix() (reads, writes int64) { return k.reads.Load(), k.writes.Load() }

func (k *kvInstance) close() {
	k.stop()
	for _, cli := range k.clients {
		_ = cli.Close() // tear-down; nothing to do about a failed close
	}
	_ = k.clu.Close()
	k.cancel()
}
