package durability

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"crucial/internal/ring"
)

func testManifest(epoch, cut uint64) Manifest {
	return Manifest{
		Node:   "n1",
		Epoch:  epoch,
		CutSeg: cut,
		Directives: ring.Directives{
			Version: 3,
			Entries: map[string][]ring.NodeID{"Counter/hot": {"n2", "n1"}},
		},
		Members: []ring.NodeID{"n1", "n2"},
		ViewID:  7,
	}
}

func TestSaveLoadCheckpoint(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	blobs := [][]byte{[]byte("obj-a"), []byte("obj-b")}
	if err := SaveCheckpoint(ctx, store, testManifest(1, 4), blobs, nil); err != nil {
		t.Fatal(err)
	}
	man, got, found, err := LoadLatest(ctx, store, "n1")
	if err != nil || !found {
		t.Fatalf("LoadLatest = found %v, err %v", found, err)
	}
	if man.Epoch != 1 || man.CutSeg != 4 || man.ViewID != 7 {
		t.Fatalf("manifest = %+v", man)
	}
	if len(got) != 2 || !bytes.Equal(got[0], blobs[0]) || !bytes.Equal(got[1], blobs[1]) {
		t.Fatalf("blobs = %q", got)
	}
	// The directive table — hot-key pins — must survive the round trip.
	targets, ok := man.Directives.Lookup("Counter/hot")
	if !ok || man.Directives.Version != 3 || len(targets) != 2 || targets[0] != "n2" {
		t.Fatalf("directives lost in checkpoint: %+v", man.Directives)
	}
}

func TestLoadLatestFirstBoot(t *testing.T) {
	_, _, found, err := LoadLatest(context.Background(), testStore(), "n1")
	if found || err != nil {
		t.Fatalf("fresh store LoadLatest = (found %v, err %v), want (false, nil)", found, err)
	}
}

func TestSaveCheckpointEpochCAS(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	if err := SaveCheckpoint(ctx, store, testManifest(2, 1), nil, nil); err != nil {
		t.Fatal(err)
	}
	err := SaveCheckpoint(ctx, store, testManifest(2, 9), nil, nil)
	if !errors.Is(err, ErrEpochClaimed) {
		t.Fatalf("second save of epoch 2 = %v, want ErrEpochClaimed", err)
	}
	// The loser must not have clobbered the winner.
	man, _, _, err := LoadLatest(ctx, store, "n1")
	if err != nil || man.CutSeg != 1 {
		t.Fatalf("winner manifest = %+v, err %v", man, err)
	}
}

func TestLoadLatestFallsBackPastDamagedEpoch(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	if err := SaveCheckpoint(ctx, store, testManifest(1, 2), [][]byte{[]byte("old")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(ctx, store, testManifest(2, 5), [][]byte{[]byte("new")}, nil); err != nil {
		t.Fatal(err)
	}
	// Damage epoch 2: its snapshot blob vanishes (partial GC, bit rot).
	// The latest pointer still says 2; LoadLatest must fall back to 1.
	if err := store.Delete(ctx, objectKey("n1", 2, 0)); err != nil {
		t.Fatal(err)
	}
	man, blobs, found, err := LoadLatest(ctx, store, "n1")
	if err != nil || !found {
		t.Fatalf("LoadLatest = found %v, err %v", found, err)
	}
	if man.Epoch != 1 || string(blobs[0]) != "old" {
		t.Fatalf("fell back to epoch %d blob %q, want epoch 1 %q", man.Epoch, blobs[0], "old")
	}
}

func TestLoadLatestAllEpochsDamaged(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	if err := SaveCheckpoint(ctx, store, testManifest(1, 2), [][]byte{[]byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ctx, objectKey("n1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	_, _, found, err := LoadLatest(ctx, store, "n1")
	if found {
		t.Fatal("damaged-only checkpoints must not report found")
	}
	if err == nil {
		t.Fatal("the damage must be reported so the caller can log it")
	}
}

func TestReadLogManifestPointsAtTruncatedSegment(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	// Segments 3 and 4 survive; 1 and 2 were truncated by a later
	// checkpoint whose manifest never landed (crash between truncate and
	// manifest CAS is impossible by ordering, but an OLD manifest with
	// CutSeg=1 plus segments GC'd by a newer, lost epoch is this shape).
	put := func(seq uint64, recs []Record) {
		if err := store.Put(ctx, segmentKey("n1", seq), encodeAll(recs)); err != nil {
			t.Fatal(err)
		}
	}
	put(3, []Record{{Origin: "n1", Seq: 30, Epoch: 1, Version: 30}})
	put(4, []Record{{Origin: "n1", Seq: 40, Epoch: 1, Version: 40}})
	recs, maxSeg, torn, err := ReadLog(ctx, store, "n1", 1)
	if err != nil || torn != 0 {
		t.Fatalf("ReadLog: torn %d, err %v", torn, err)
	}
	if len(recs) != 2 || recs[0].Seq != 30 || recs[1].Seq != 40 {
		t.Fatalf("ReadLog past the gap = %+v, want segments 3 and 4", recs)
	}
	if maxSeg != 4 {
		t.Fatalf("maxSeg = %d, want 4", maxSeg)
	}
}

func TestReadLogStopsAtDamagedSegment(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	good := encodeAll([]Record{{Origin: "n1", Seq: 1, Epoch: 1, Version: 1}, {Origin: "n1", Seq: 2, Epoch: 1, Version: 2}})
	if err := store.Put(ctx, segmentKey("n1", 1), good); err != nil {
		t.Fatal(err)
	}
	// Segment 2: one good record, then a torn frame.
	torn := encodeAll([]Record{{Origin: "n1", Seq: 3, Epoch: 1, Version: 3}})
	torn = append(torn, AppendRecord(nil, Record{Origin: "n1", Seq: 4, Epoch: 1, Version: 4})[:5]...)
	if err := store.Put(ctx, segmentKey("n1", 2), torn); err != nil {
		t.Fatal(err)
	}
	// Segment 3 exists but lies beyond the break: it must NOT be replayed
	// over the gap.
	if err := store.Put(ctx, segmentKey("n1", 3), encodeAll([]Record{{Origin: "n1", Seq: 9, Epoch: 1, Version: 9}})); err != nil {
		t.Fatal(err)
	}
	recs, _, tornN, err := ReadLog(ctx, store, "n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tornN != 1 {
		t.Fatalf("torn = %d, want 1", tornN)
	}
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("ReadLog = %+v, want records 1-3 and a stop at the tear", recs)
	}
}

func TestReadLogEmptySegment(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	if err := store.Put(ctx, segmentKey("n1", 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, segmentKey("n1", 2), encodeAll([]Record{{Origin: "n1", Seq: 5, Epoch: 1, Version: 5}})); err != nil {
		t.Fatal(err)
	}
	recs, maxSeg, torn, err := ReadLog(ctx, store, "n1", 1)
	if err != nil || torn != 0 {
		t.Fatalf("ReadLog: torn %d, err %v", torn, err)
	}
	if len(recs) != 1 || maxSeg != 2 {
		t.Fatalf("an empty segment must read as zero records, not damage: %d recs, maxSeg %d", len(recs), maxSeg)
	}
}

func TestTruncateSegments(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	for seq := uint64(1); seq <= 4; seq++ {
		if err := store.Put(ctx, segmentKey("n1", seq), encodeAll([]Record{{Origin: "n1", Seq: seq}})); err != nil {
			t.Fatal(err)
		}
	}
	deleted, err := TruncateSegments(ctx, store, "n1", 3)
	if err != nil || deleted != 2 {
		t.Fatalf("TruncateSegments = (%d, %v), want (2, nil)", deleted, err)
	}
	recs, _, _, err := ReadLog(ctx, store, "n1", 3)
	if err != nil || len(recs) != 2 {
		t.Fatalf("post-truncate ReadLog = %d records, err %v", len(recs), err)
	}
}

func TestPruneEpochs(t *testing.T) {
	store := testStore()
	ctx := context.Background()
	for ep := uint64(1); ep <= 3; ep++ {
		if err := SaveCheckpoint(ctx, store, testManifest(ep, ep), [][]byte{[]byte("b")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneEpochs(ctx, store, "n1", 2); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 gone, epochs 2 and 3 intact.
	if _, _, err := loadEpoch(ctx, store, "n1", 1); err == nil {
		t.Fatal("epoch 1 survived the prune")
	}
	for ep := uint64(2); ep <= 3; ep++ {
		if _, _, err := loadEpoch(ctx, store, "n1", ep); err != nil {
			t.Fatalf("epoch %d damaged by prune: %v", ep, err)
		}
	}
	man, _, found, err := LoadLatest(ctx, store, "n1")
	if err != nil || !found || man.Epoch != 3 {
		t.Fatalf("LoadLatest after prune = (%+v, %v, %v)", man, found, err)
	}
}
