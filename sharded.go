package crucial

import (
	"context"
	"fmt"
	"sync/atomic"
)

// ShardedCounter is a commutative counter spread over N independent
// AtomicLong shards (DESIGN.md §5g). A single AtomicLong serializes every
// increment through one object monitor on one node — the textbook hot spot
// when thousands of cloud threads count into the same key. Addition
// commutes, so the counter does not need that serialization: each Add
// lands on one shard chosen round-robin, the shards hash (or are
// rebalanced) onto different nodes, and Get merges by summing shard
// values. Writes scale with the shard count; reads cost one fan-out but
// stay cheap because Get is classified read-only and rides the whole
// lease-based read path (client caches, primary-local reads).
//
// Semantics: Add/Increment are linearizable per shard, and Get returns a
// sum of linearizable per-shard reads — a value the counter passed through
// if no adds overlap the read, and a valid concurrent serialization
// otherwise. This is the standard sharded-counter trade: total-order reads
// of the exact instantaneous value are given up for write scalability.
// Use a plain AtomicLong where reads must serialize against writes (e.g.
// CompareAndSet loops — deliberately absent here, as they do not commute).
//
// Like every proxy it binds through BindShared/Runtime.Bind (the weaver
// descends into the shard slice) and gob-serializes to reference metadata
// only, so a Runnable holding one ships to cloud functions unchanged.
type ShardedCounter struct {
	// Shards are the underlying per-shard counters, keys "<key>#s<i>".
	// Exported for gob (the proxy must ship inside Runnables); treat as
	// read-only — use Add/Get.
	Shards []*AtomicLong
}

// shardCursor spreads round-robin starts across all ShardedCounter
// instances in the process, so N decoded copies of the same Runnable do
// not all open fire on shard 0.
var shardCursor atomic.Uint64

// DefaultCounterShards is the shard count NewShardedCounter uses when
// given zero: enough to spread across small clusters without making Get's
// fan-out noticeable.
const DefaultCounterShards = 8

// NewShardedCounter builds a proxy for the sharded counter named key with
// the given shard count (DefaultCounterShards when <= 0). Shard keys are
// derived ("<key>#s<i>"), so two proxies built with the same key and
// shard count address the same counter; building with different shard
// counts addresses overlapping-but-different shard sets and must be
// avoided, exactly like re-keying any other shared object.
func NewShardedCounter(key string, shards int, opts ...Option) *ShardedCounter {
	if shards <= 0 {
		shards = DefaultCounterShards
	}
	c := &ShardedCounter{Shards: make([]*AtomicLong, shards)}
	for i := range c.Shards {
		c.Shards[i] = NewAtomicLong(fmt.Sprintf("%s#s%d", key, i), opts...)
	}
	return c
}

// pick chooses the shard for one write.
func (c *ShardedCounter) pick() *AtomicLong {
	return c.Shards[shardCursor.Add(1)%uint64(len(c.Shards))]
}

// Add contributes delta to the counter (one shipped write on one shard).
func (c *ShardedCounter) Add(ctx context.Context, delta int64) error {
	_, err := c.pick().GetAndAdd(ctx, delta)
	return err
}

// Increment adds one.
func (c *ShardedCounter) Increment(ctx context.Context) error {
	return c.Add(ctx, 1)
}

// Get returns the counter's value: the sum of all shard values, each read
// through the read-only fast path.
func (c *ShardedCounter) Get(ctx context.Context) (int64, error) {
	var sum int64
	for _, s := range c.Shards {
		v, err := s.Get(ctx)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// Reset zeroes every shard. Not atomic across shards: adds concurrent
// with a Reset may survive in shards not yet zeroed.
func (c *ShardedCounter) Reset(ctx context.Context) error {
	for _, s := range c.Shards {
		if err := s.Set(ctx, 0); err != nil {
			return err
		}
	}
	return nil
}

// ShardCount returns the number of shards.
func (c *ShardedCounter) ShardCount() int { return len(c.Shards) }
