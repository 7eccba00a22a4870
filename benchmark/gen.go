package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Key spaces of the two kv workloads. 4096 cells are four times the
// client's default 1024-entry cache, so hits, misses, evictions and
// write-invalidations all occur; 16 counters under Zipf leave a few
// objects contended, so group commit has batches to form.
const (
	kvCells       = 4096
	kvCounters    = 16
	zipfS         = 1.01
	readValueLen  = 256
	writeValueLen = 1024
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opIncr
)

// op is one generated operation; the program sees nothing else of the
// workload.
type op struct {
	Kind opKind
	Key  uint32
}

// opGen is one caller's seeded operation stream: the same (seed, caller,
// workload) always yields the same sequence.
type opGen struct {
	rng      *rand.Rand
	cells    *rand.Zipf
	counters *rand.Zipf
	next     func() op
}

func newOpGen(workload string, seed int64, caller int) (*opGen, error) {
	// One independent stream per caller, so the sequence a caller issues
	// does not depend on how the scheduler interleaves the others.
	rng := rand.New(rand.NewSource(seed*7919 + int64(caller)))
	g := &opGen{
		rng:      rng,
		cells:    rand.NewZipf(rng, zipfS, 1, kvCells-1),
		counters: rand.NewZipf(rng, zipfS, 1, kvCounters-1),
	}
	switch workload {
	case "kv_read_mostly":
		g.next = func() op {
			key := uint32(g.cells.Uint64())
			if g.rng.Float64() < 0.05 {
				// A cell has one writing caller (key ≡ caller mod callers),
				// so the versions stored in it only grow and any reader may
				// check that what it sees never goes back.
				return op{opPut, key - key%callers + uint32(caller)}
			}
			return op{opGet, key}
		}
	case "kv_write_hot":
		g.next = func() op {
			if g.rng.Float64() < 0.70 {
				return op{opIncr, uint32(g.counters.Uint64())}
			}
			return op{opPut, uint32(g.rng.Intn(kvCells))}
		}
	case "statefun_call":
		g.next = func() op { return op{opIncr, uint32(g.rng.Intn(statefunInstances))} }
	default:
		return nil, fmt.Errorf("no operation generator for workload %q", workload)
	}
	return g, nil
}

// opsHash digests the first n operations of caller 0, for the test that
// the same seed reproduces the same inputs.
func opsHash(workload string, seed int64, n int) (uint64, error) {
	g, err := newOpGen(workload, seed, 0)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var b [5]byte
	for i := 0; i < n; i++ {
		o := g.next()
		b[0] = byte(o.Kind)
		binary.LittleEndian.PutUint32(b[1:], o.Key)
		_, _ = h.Write(b[:])
	}
	return h.Sum64(), nil
}

// Cell values carry their own key and a version, then a pattern derived
// from both, so a read can be checked without a model of the store.
const valueHeader = 12

func fillValue(buf []byte, key uint32, version uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], key)
	binary.LittleEndian.PutUint64(buf[4:12], version)
	seed := byte(key) ^ byte(version)
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = seed + byte(i)
	}
}

func parseValue(b []byte) (key uint32, version uint64, err error) {
	if len(b) < valueHeader {
		return 0, 0, fmt.Errorf("value of %d bytes has no header", len(b))
	}
	key = binary.LittleEndian.Uint32(b[0:4])
	version = binary.LittleEndian.Uint64(b[4:12])
	seed := byte(key) ^ byte(version)
	for i := valueHeader; i < len(b); i++ {
		if b[i] != seed+byte(i) {
			return key, version, fmt.Errorf("value of cell %d version %d is corrupt at byte %d", key, version, i)
		}
	}
	return key, version, nil
}
