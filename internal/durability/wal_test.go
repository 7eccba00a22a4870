package durability

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"crucial/internal/netsim"
	"crucial/internal/storage/s3sim"
	"crucial/internal/telemetry"
)

// testStore builds a zero-latency store with immediate LIST consistency,
// so tests assert WAL logic rather than storage timing.
func testStore() *s3sim.Store {
	return s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
}

func TestWALAppendFlushCommit(t *testing.T) {
	store := testStore()
	l := OpenLog(LogOptions{Store: store, Node: "n1", SyncEvery: 4})
	defer l.Close()
	ctx := context.Background()
	commits := make([]*Commit, 10)
	for i := range commits {
		commits[i] = l.Append(Record{Origin: "n1", Seq: uint64(i + 1), Epoch: 1, Version: uint64(i + 1), Payload: []byte{byte(i)}})
	}
	for i, c := range commits {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	recs, maxSeg, torn, err := ReadLog(ctx, store, "n1", 0)
	if err != nil || torn != 0 {
		t.Fatalf("ReadLog = torn %d, err %v", torn, err)
	}
	if len(recs) != 10 || maxSeg != 1 {
		t.Fatalf("ReadLog = %d records, maxSeg %d; want 10, 1", len(recs), maxSeg)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d out of order: seq %d", i, r.Seq)
		}
	}
}

func TestWALGroupCommitFewerFsyncsThanAppends(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := OpenLog(LogOptions{Store: testStore(), Node: "n1", SyncEvery: 64, Metrics: reg})
	defer l.Close()
	ctx := context.Background()
	const n = 200
	commits := make([]*Commit, n)
	for i := range commits {
		commits[i] = l.Append(Record{Origin: "n1", Seq: uint64(i + 1), Payload: []byte("x")})
	}
	for _, c := range commits {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	appends := snap.Counters[telemetry.MetWALAppends]
	fsyncs := snap.Counters[telemetry.MetWALFsyncs]
	if appends != n {
		t.Fatalf("wal.appends = %d, want %d", appends, n)
	}
	if fsyncs == 0 || fsyncs >= n {
		t.Fatalf("wal.fsyncs = %d: group commit should batch %d appends into fewer flushes", fsyncs, n)
	}
}

func TestWALSealRollsAndReadSpansSegments(t *testing.T) {
	store := testStore()
	// Tiny segments: every ~2 records roll.
	l := OpenLog(LogOptions{Store: store, Node: "n1", SyncEvery: 1, SegmentBytes: 48})
	defer l.Close()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := l.Append(Record{Origin: "n1", Seq: uint64(i + 1), Payload: []byte("payload")}).Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := l.SealSegment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cut < 2 {
		t.Fatalf("cut = %d: 8 records against 48-byte segments must have rolled", cut)
	}
	// Records appended after the seal land in segments >= cut.
	if err := l.Append(Record{Origin: "n1", Seq: 99, Payload: []byte("post-seal")}).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := ReadLog(ctx, store, "n1", 0)
	if err != nil || torn != 0 {
		t.Fatalf("ReadLog: torn %d, err %v", torn, err)
	}
	if len(recs) != 9 {
		t.Fatalf("ReadLog = %d records across segments, want 9", len(recs))
	}
	for i := 0; i < 8; i++ {
		if recs[i].Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d — cross-segment order broken", i, recs[i].Seq)
		}
	}
	recs, _, _, err = ReadLog(ctx, store, "n1", cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 99 {
		t.Fatalf("ReadLog from cut %d = %d records (want just the post-seal one)", cut, len(recs))
	}
}

func TestWALFlushRetriesTransientFaults(t *testing.T) {
	store := testStore()
	l := OpenLog(LogOptions{Store: store, Node: "n1", SyncEvery: 8})
	defer l.Close()
	ctx := context.Background()
	// Every PUT fails: the commit must surface an error, not hang or ack.
	store.SetFaults(s3sim.Faults{PutErrRate: 1.0})
	c := l.Append(Record{Origin: "n1", Seq: 1, Payload: []byte("a")})
	if err := c.Wait(ctx); !errors.Is(err, s3sim.ErrInjected) {
		t.Fatalf("commit under total PUT failure = %v, want ErrInjected", err)
	}
	// Heal the store: the failed frame stays in the open segment buffer and
	// ships with the next flush — nothing acknowledged is ever dropped, and
	// nothing unacknowledged is lost either if the node stays up.
	store.SetFaults(s3sim.Faults{})
	if err := l.Append(Record{Origin: "n1", Seq: 2, Payload: []byte("b")}).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := ReadLog(ctx, store, "n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ReadLog = %d records, want both (failed frame re-shipped)", len(recs))
	}
}

func TestWALClosed(t *testing.T) {
	l := OpenLog(LogOptions{Store: testStore(), Node: "n1", SyncEvery: 4})
	l.Close()
	ctx := context.Background()
	if err := l.Append(Record{Origin: "n1", Seq: 1}).Wait(ctx); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close = %v, want ErrLogClosed", err)
	}
	if _, err := l.SealSegment(ctx); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("seal after close = %v, want ErrLogClosed", err)
	}
}

func TestWALConcurrentAppends(t *testing.T) {
	store := testStore()
	l := OpenLog(LogOptions{Store: store, Node: "n1", SyncEvery: 16, SegmentBytes: 256})
	defer l.Close()
	ctx := context.Background()
	const workers, per = 8, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				rec := Record{Origin: fmt.Sprintf("w%d", w), Seq: uint64(i + 1), Payload: []byte("p")}
				if err := l.Append(rec).Wait(ctx); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	recs, _, torn, err := ReadLog(ctx, store, "n1", 0)
	if err != nil || torn != 0 {
		t.Fatalf("ReadLog: torn %d, err %v", torn, err)
	}
	if len(recs) != workers*per {
		t.Fatalf("ReadLog = %d records, want %d", len(recs), workers*per)
	}
}

func TestWALSealUnderLoadDoesNotHang(t *testing.T) {
	l := OpenLog(LogOptions{Store: testStore(), Node: "n1", SyncEvery: 4})
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				l.Append(Record{Origin: "n1", Seq: uint64(i), Payload: []byte("x")})
			}
		}
	}()
	// SealSegment waits only for appends that preceded the call; constant
	// new load must not starve it past the context deadline.
	if _, err := l.SealSegment(ctx); err != nil {
		t.Fatalf("SealSegment under append load: %v", err)
	}
	close(stop)
}
