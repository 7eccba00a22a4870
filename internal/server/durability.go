package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/telemetry"
)

// Durability tier (DESIGN.md §5h): every committed SMR delivery this node
// applies to a persistent copy is appended to a per-node write-ahead log
// in cold storage, and the coordinator blocks the client ack until its own
// record's flush lands — so an acknowledged write exists in storage that
// survives losing every node at once, not just f of them. A background
// snapshotter periodically checkpoints per-object state (the pushObject
// serialization: snapshot bytes + apply version + at-most-once window)
// together with the placement directive table, then truncates the sealed
// segments the checkpoint covers. On restart, recoverFromCold rebuilds the
// node from the latest valid checkpoint plus a replay of the surviving
// log before the node rejoins the cluster.

// durabilityState is one node's durability runtime; nil when the policy
// disables the tier or no cold store is wired.
type durabilityState struct {
	pol   core.DurabilityPolicy
	store durability.Storage
	log   *durability.Log // nil for snapshot-only durability
	epoch uint64          // last checkpoint epoch written or recovered

	stop chan struct{}
	done chan struct{}

	cReplays   *telemetry.Counter
	cTornTails *telemetry.Counter
	cSnapshots *telemetry.Counter
}

// initDurability recovers the node's state from cold storage and starts
// the WAL and the snapshotter. It runs before the node joins the
// directory, so peers only ever see it with its recovered state — and the
// recovered directive table is re-installed first, so the join itself
// routes by the surviving placement.
func (n *Node) initDurability() error {
	pol := n.cfg.Durability.Normalized()
	if !pol.Enabled || n.cfg.ColdStore == nil {
		return nil
	}
	d := &durabilityState{
		pol:        pol,
		store:      n.cfg.ColdStore,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		cReplays:   n.metrics.Counter(telemetry.MetWALReplays),
		cTornTails: n.metrics.Counter(telemetry.MetWALTornTails),
		cSnapshots: n.metrics.Counter(telemetry.MetServerSnapshots),
	}
	n.dur = d

	maxSeg, err := n.recoverFromCold(d)
	if err != nil {
		return err
	}
	if pol.WALEnabled() {
		d.log = durability.OpenLog(durability.LogOptions{
			Store:        d.store,
			Node:         string(n.cfg.ID),
			SyncEvery:    pol.SyncEvery,
			SegmentBytes: pol.SegmentBytes,
			StartSeg:     maxSeg + 1,
			Metrics:      n.metrics,
			Tracer:       n.tracer,
		})
	}
	if pol.Snapshotting() {
		go n.snapshotLoop(d)
	} else {
		close(d.done)
	}
	return nil
}

// recoverFromCold loads the latest checkpoint and replays the surviving
// log; it returns the highest WAL segment observed so the reopened log
// writes strictly after history.
func (n *Node) recoverFromCold(d *durabilityState) (maxSeg uint64, err error) {
	ctx, span := n.tracer.Start(context.Background(), telemetry.SpanRecoveryReplay)
	defer span.End()
	man, blobs, found, lerr := durability.LoadLatest(ctx, d.store, string(n.cfg.ID))
	if lerr != nil {
		// A damaged or GC'd checkpoint: recover from whatever the log
		// still holds rather than refusing to boot.
		n.log.Warn("checkpoint load failed, recovering from log alone", "err", lerr)
	}
	restored := 0
	if found {
		d.epoch = man.Epoch
		for i, blob := range blobs {
			msg, derr := decodeTransfer(blob)
			if derr != nil {
				n.log.Warn("skipping undecodable snapshot blob", "key", man.Objects[i], "err", derr)
				continue
			}
			if rerr := n.restoreObject(msg); rerr != nil {
				n.log.Warn("skipping unrestorable snapshot blob", "ref", msg.Ref.String(), "err", rerr)
				continue
			}
			restored++
		}
		if man.Directives.Version > 0 {
			// Satellite of the elastic-resharding plane: hot-key pins ride
			// the manifest and survive a full-cluster restart. Adoption is
			// version-checked, so a peer that recovered a newer table first
			// wins (SyncDirectives is last-writer-wins by version).
			if _, adopted := n.cfg.Directory.SyncDirectives(man.Directives); adopted {
				n.log.Info("recovered placement directives",
					"version", man.Directives.Version, "keys", man.Directives.Len())
			}
		}
	}
	recs, maxSeg, torn, rerr := durability.ReadLog(ctx, d.store, string(n.cfg.ID), man.CutSeg)
	if rerr != nil {
		return maxSeg, rerr
	}
	if torn > 0 {
		d.cTornTails.Add(uint64(torn))
	}
	replayed := 0
	for _, rec := range recs {
		applied, perr := n.replayRecord(rec)
		if perr != nil {
			return maxSeg, perr
		}
		if applied {
			replayed++
		}
	}
	d.cReplays.Add(uint64(len(recs)))
	if found || len(recs) > 0 {
		n.log.Info("recovered from cold storage", "epoch", man.Epoch,
			"objects", restored, "wal_records", len(recs), "replayed", replayed,
			"torn", torn, "directives", man.Directives.Version)
	}
	span.SetAttr(telemetry.AttrObjectKey, fmt.Sprintf("objects=%d records=%d", restored, len(recs)))
	return maxSeg, nil
}

// restoreObject materializes one checkpointed object (the transferMsg
// serialization that state transfer uses) into the object table.
func (n *Node) restoreObject(msg transferMsg) error {
	info, err := n.cfg.Registry.Lookup(msg.Ref.Type)
	if err != nil {
		return err
	}
	obj, err := info.New(msg.Init)
	if err != nil {
		return err
	}
	snap, ok := obj.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("server: recovered type %s is not snapshotable", msg.Ref.Type)
	}
	if err := snap.Restore(msg.Snapshot); err != nil {
		return err
	}
	e := newEntry(obj, msg.Persist, false, msg.Init)
	e.dedup = msg.Dedup
	e.version = msg.Version
	n.objMu.Lock()
	n.objects[msg.Ref] = e
	n.objMu.Unlock()
	return nil
}

// replayRecord re-applies one logged round, gated by the record's
// post-apply version: a record whose Version is not beyond the copy's
// current version is already covered — by the checkpoint, or by an
// earlier record of the same op (a client retry that re-delivered through
// a later round) — and is skipped. Inside an applied record, each
// invocation still runs through the at-most-once window, so a round that
// originally mixed fresh ops with dedup replays reproduces the same
// executions and the same version arithmetic it had live.
//
// A record that passed the log's checksum yet is not a round payload was
// written in another format (a log from before rounds had one) or by a bug,
// and it may hold an acknowledged write: that is an error, which fails the
// recovery and with it the node's start, rather than a skip that would come
// up serving state with the write missing.
func (n *Node) replayRecord(rec durability.Record) (applied bool, err error) {
	_, invs, err := decodeRoundPayload(rec.Payload)
	if err != nil {
		return false, fmt.Errorf("wal record %s/%d is not a round payload: %w", rec.Origin, rec.Seq, err)
	}
	e, err := n.lookupOrCreate(invs[0])
	if err != nil {
		n.log.Warn("cannot materialize object for wal replay",
			"ref", invs[0].Ref.String(), "err", err)
		return false, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec.Version <= e.version {
		return false, nil
	}
	n.applyLocked(context.Background(), e, invs, nil)
	// The record's version is authoritative: the live execution produced
	// it, and forcing it here keeps the copy comparable with replicas that
	// recovered through a different snapshot/replay split.
	e.version = rec.Version
	return true, nil
}

// appendWAL logs one applied delivery and returns its durability ticket
// (nil when the tier or the WAL is off). Origin/seq name the total-order
// message; version is the post-apply version the replay gate keys on.
func (n *Node) appendWAL(origin string, seq uint64, version uint64, payload []byte) *durability.Commit {
	if !n.walEnabled() {
		return nil
	}
	return n.dur.log.Append(durability.Record{
		Origin:  origin,
		Seq:     seq,
		Version: version,
		Payload: payload,
	})
}

// walEnabled reports whether this node logs applied rounds.
func (n *Node) walEnabled() bool { return n.dur != nil && n.dur.log != nil }

// waitDurable blocks an ack on a record's flush. A failed flush refuses
// the ack with the retryable sentinel: the client's retry is dedup-safe,
// and acking a write cold storage never saw would break the crash
// guarantee the tier exists for.
func waitDurable(ctx context.Context, c *durability.Commit) error {
	if c == nil {
		return nil
	}
	if err := c.Wait(ctx); err != nil {
		return fmt.Errorf("%w: wal flush: %v", core.ErrRebalancing, err)
	}
	return nil
}

// snapshotLoop checkpoints the node's objects every SnapshotInterval and
// truncates the log behind each checkpoint.
func (n *Node) snapshotLoop(d *durabilityState) {
	defer close(d.done)
	t := time.NewTicker(d.pol.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := n.checkpoint(d); err != nil && !errors.Is(err, core.ErrStopped) {
				n.log.Warn("checkpoint failed", "err", err)
			}
		}
	}
}

// checkpoint runs one snapshotter pass: seal the open WAL segment, dump
// every persistent object (snapshot + version + dedup window, the
// transferMsg serialization), write the epoch's blobs and CAS its
// manifest, then truncate the segments the cut covers and prune epochs
// older than the previous one. Ordering is what makes truncation safe:
// every record in a segment below the cut was applied before the seal
// returned, so the snapshots taken after it reflect them.
func (n *Node) checkpoint(d *durabilityState) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var cut uint64
	if d.log != nil {
		var err error
		if cut, err = d.log.SealSegment(ctx); err != nil {
			return err
		}
	}
	refs, entries := n.residents()
	var blobs [][]byte
	for i, ref := range refs {
		e := entries[i]
		if e.sync || !e.persist {
			continue
		}
		msg, err := n.snapshotEntry(ref, e)
		if err != nil {
			n.log.Warn("checkpoint skipping object", "ref", ref.String(), "err", err)
			continue
		}
		blob, err := msg.encode()
		if err != nil {
			n.log.Warn("checkpoint encode failed", "ref", ref.String(), "err", err)
			continue
		}
		blobs = append(blobs, blob)
	}
	view, _ := n.currentView()
	man := durability.Manifest{
		Node:       string(n.cfg.ID),
		Epoch:      d.epoch + 1,
		CutSeg:     cut,
		Directives: view.Directives,
		Members:    view.Members,
		ViewID:     view.ID,
	}
	if err := durability.SaveCheckpoint(ctx, d.store, man, blobs, n.metrics); err != nil {
		if errors.Is(err, durability.ErrEpochClaimed) {
			// Another writer (a concurrent incarnation racing our shutdown)
			// owns the epoch; skip past it next pass.
			d.epoch++
		}
		return err
	}
	d.epoch = man.Epoch
	d.cSnapshots.Inc()
	if d.log != nil && cut > 1 {
		if _, err := durability.TruncateSegments(ctx, d.store, string(n.cfg.ID), cut); err != nil {
			n.log.Debug("wal truncation failed", "err", err)
		}
	}
	if man.Epoch > 1 {
		// Keep the previous epoch as a fallback against a reader racing
		// the prune; everything older goes.
		if err := durability.PruneEpochs(ctx, d.store, string(n.cfg.ID), man.Epoch-1); err != nil {
			n.log.Debug("checkpoint prune failed", "err", err)
		}
	}
	n.log.Debug("checkpoint complete", "epoch", man.Epoch, "objects", len(blobs), "cut", cut)
	return nil
}

// DebugCheckpoint runs one snapshotter pass now (tests).
func (n *Node) DebugCheckpoint() error {
	if n.dur == nil {
		return errors.New("server: durability is off")
	}
	return n.checkpoint(n.dur)
}

// closeDurability stops the snapshotter and abandons unflushed WAL
// records — a graceful close behaves like the crash the tier is built
// for, and nothing unflushed was ever acknowledged.
func (n *Node) closeDurability() {
	if n.dur == nil {
		return
	}
	close(n.dur.stop)
	<-n.dur.done
	if n.dur.log != nil {
		n.dur.log.Close()
	}
}
