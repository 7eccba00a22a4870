// Package netsim models network and service latencies for the simulated
// cloud substrates in this repository.
//
// Every artificial wait in the code base flows through a Profile so that
// experiments can run with paper-like latencies (AWS us-east-1, 2019) while
// unit tests use a heavily compressed profile. A Profile is immutable after
// construction; concurrent use is safe.
package netsim

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Latency describes one service interaction as a base delay plus uniform
// jitter in [-Jitter, +Jitter]. The zero value means "no delay".
type Latency struct {
	Base   time.Duration
	Jitter time.Duration
}

// Profile groups the latencies of every simulated cloud service, together
// with a global time Scale. A Scale of 1.0 reproduces paper-like waits; 0.1
// compresses every wait tenfold. Scale never affects the *relative* cost of
// operations, only wall-clock duration.
type Profile struct {
	// Scale multiplies every delay produced by this profile. Must be > 0.
	Scale float64

	// DSONet is the one-way network hop between a client and a DSO node
	// (half of the ~230 microsecond in-memory round trip of Table 2).
	DSONet Latency
	// DSOReplica is the extra one-way hop between DSO replicas used by the
	// total-order multicast (rf > 1 roughly doubles the client latency).
	DSOReplica Latency

	// RedisNet is the one-way hop to the Redis-like store.
	RedisNet Latency

	// S3Put and S3Get are full request latencies of the S3-like blob store.
	S3Put Latency
	S3Get Latency
	// S3List is the latency of a LIST call; list results are additionally
	// subject to eventual consistency (see s3sim).
	S3List Latency

	// SQSSend, SQSReceive and SNSPublish model the queueing services.
	// SQSReceive is the cost of one (possibly empty) poll.
	SQSSend    Latency
	SQSReceive Latency
	SNSPublish Latency

	// ColdStart is the container provisioning delay of the FaaS platform,
	// and InvokeOverhead the per-invocation dispatch cost of a warm one.
	ColdStart      Latency
	InvokeOverhead Latency
}

// AWS2019 returns a profile calibrated from the paper's measurements
// (Table 2 and Section 6): ~230 microsecond in-memory round trips,
// 23/35 ms S3 GET/PUT, tens of milliseconds for SQS polling, and a 1 s
// FaaS cold start. The scale argument compresses all waits.
func AWS2019(scale float64) *Profile {
	return &Profile{
		Scale:      scale,
		DSONet:     Latency{Base: 110 * time.Microsecond, Jitter: 20 * time.Microsecond},
		DSOReplica: Latency{Base: 130 * time.Microsecond, Jitter: 25 * time.Microsecond},
		RedisNet:   Latency{Base: 112 * time.Microsecond, Jitter: 20 * time.Microsecond},
		S3Put:      Latency{Base: 34800 * time.Microsecond, Jitter: 9000 * time.Microsecond},
		S3Get:      Latency{Base: 23000 * time.Microsecond, Jitter: 6000 * time.Microsecond},
		S3List:     Latency{Base: 25000 * time.Microsecond, Jitter: 8000 * time.Microsecond},
		// Queueing services add "significant latency, sometimes hundreds
		// of milliseconds" (paper Section 1, citing Garfinkel's SQS
		// measurements).
		SQSSend:        Latency{Base: 25 * time.Millisecond, Jitter: 10 * time.Millisecond},
		SQSReceive:     Latency{Base: 60 * time.Millisecond, Jitter: 25 * time.Millisecond},
		SNSPublish:     Latency{Base: 30 * time.Millisecond, Jitter: 12 * time.Millisecond},
		ColdStart:      Latency{Base: 1200 * time.Millisecond, Jitter: 400 * time.Millisecond},
		InvokeOverhead: Latency{Base: 15 * time.Millisecond, Jitter: 8 * time.Millisecond},
	}
}

// FastTest returns a profile for unit tests: the same relative ordering of
// services as AWS2019 but three orders of magnitude faster, so full-stack
// tests complete in milliseconds.
func FastTest() *Profile {
	p := AWS2019(1.0 / 1000.0)
	return p
}

// Zero returns a profile that injects no delays at all. Useful for tests
// that assert pure logic.
func Zero() *Profile {
	return &Profile{Scale: 1}
}

// rng is a lock-protected source of jitter. Profiles share one source; the
// contention is irrelevant next to the sleeps it feeds.
var rng = struct {
	sync.Mutex
	r *rand.Rand
}{r: rand.New(rand.NewSource(42))}

// Sample returns one concrete delay drawn from l, scaled by scale.
// It never returns a negative duration.
func (l Latency) Sample(scale float64) time.Duration {
	if l.Base == 0 && l.Jitter == 0 {
		return 0
	}
	d := l.Base
	if l.Jitter > 0 {
		rng.Lock()
		j := time.Duration(rng.r.Int63n(int64(2*l.Jitter))) - l.Jitter
		rng.Unlock()
		d += j
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(float64(d) * scale)
}

// Delay blocks for one sample of l (scaled by the profile) or until the
// context is cancelled, returning the context error in that case.
func (p *Profile) Delay(ctx context.Context, l Latency) error {
	return Sleep(ctx, l.Sample(p.Scale))
}

// spinThreshold selects the waiting strategy: below it, timers are
// useless — this host's timer granularity is ~1ms, which would inflate
// every microsecond-scale simulated latency by two orders of magnitude —
// so short waits busy-spin, yielding the processor each round so
// concurrent spinners interleave.
const spinThreshold = 2 * time.Millisecond

// Sleep blocks for d or until ctx is done. A non-positive d returns
// immediately. It reports ctx.Err() when interrupted.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		// Still honour an already-cancelled context, without Done: that
		// would allocate the channel of every fresh context.
		return ctx.Err()
	}
	if d < spinThreshold {
		deadline := time.Now().Add(d)
		done := ctx.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			if done != nil && i%64 == 63 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			runtime.Gosched()
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Scaled returns d multiplied by the profile scale. It is used by compute
// models (vmsim) that piggyback on the same global compression factor.
func (p *Profile) Scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.Scale)
}
