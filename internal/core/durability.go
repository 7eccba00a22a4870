package core

import "time"

// DurabilityPolicy is the single durability-tier vocabulary of the system,
// the cold-storage sibling of RebalancePolicy. The same
// struct configures the runtime (crucial.Options.Durability), a cluster
// (cluster.Options.Durability), one server (server.Config.Durability) and
// the dso-server -wal-* flags, so a policy chosen in one place round-trips
// unchanged to every layer.
//
// The policy governs the write-ahead log and snapshot checkpointing built
// on the SMR delivery stream (DESIGN.md §5h): every committed delivery is
// appended to a per-node segmented WAL in cold storage, the coordinator
// blocks the client ack until its own record is durable (group fsync), and
// a background snapshotter periodically checkpoints per-object state plus
// the directive table and truncates sealed segments behind the checkpoint.
// On restart the node recovers from the latest valid checkpoint plus a
// replay of the surviving log — so acknowledged writes survive a full
// cluster loss, not just f node failures.
//
// The zero value disables durability entirely: nodes keep all state in
// memory, the behavior of all prior releases.
type DurabilityPolicy struct {
	// Enabled turns the durability tier on. Off, the remaining fields are
	// ignored and the write path is untouched.
	Enabled bool
	// SyncEvery caps how many WAL records one storage flush (the blob-store
	// analogue of an fsync) may cover. 1 syncs every record in its own
	// flush (strongest, slowest); larger values group-commit up to N
	// records per flush — a record's ack still waits for the flush that
	// covers it, so grouping trades latency under light load for
	// throughput under contention. Zero means the default (64). Negative
	// disables the WAL entirely, leaving snapshot-only durability: acks
	// never wait on cold storage and a crash loses everything after the
	// last checkpoint.
	SyncEvery int
	// SnapshotInterval is how often the background snapshotter checkpoints
	// per-object state and truncates the log behind it. Zero means the
	// default (2s); negative disables checkpointing (the log grows
	// unboundedly — tests only).
	SnapshotInterval time.Duration
	// SegmentBytes is the WAL segment roll threshold: once the open
	// segment reaches this size it is sealed and a new one started. Each
	// flush rewrites the open segment blob (object stores cannot append),
	// so the threshold also bounds per-flush write amplification. Zero
	// means the default (64 KiB).
	SegmentBytes int
}

// DefaultDurabilityPolicy is the configuration -wal defaults to when
// durability is requested without explicit numbers: group fsync of up to
// 64 records, 2s checkpoints, 64 KiB segments.
func DefaultDurabilityPolicy() DurabilityPolicy {
	return DurabilityPolicy{Enabled: true, SyncEvery: 64,
		SnapshotInterval: 2 * time.Second, SegmentBytes: 64 << 10}
}

// Normalized resolves the policy's defaulted fields (see the field docs);
// the layers below only ever see resolved values.
func (p DurabilityPolicy) Normalized() DurabilityPolicy {
	if !p.Enabled {
		return DurabilityPolicy{}
	}
	if p.SyncEvery == 0 {
		p.SyncEvery = 64
	}
	if p.SnapshotInterval == 0 {
		p.SnapshotInterval = 2 * time.Second
	}
	if p.SegmentBytes <= 0 {
		p.SegmentBytes = 64 << 10
	}
	return p
}

// WALEnabled reports whether committed deliveries are logged (false for
// snapshot-only durability, SyncEvery < 0).
func (p DurabilityPolicy) WALEnabled() bool { return p.Enabled && p.SyncEvery >= 0 }

// Snapshotting reports whether the background checkpointer runs.
func (p DurabilityPolicy) Snapshotting() bool { return p.Enabled && p.SnapshotInterval >= 0 }
