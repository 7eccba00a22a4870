package server

import (
	"encoding/binary"
	"fmt"

	"crucial/internal/core"
)

// At-most-once method shipping. Clients stamp every invocation with a
// (clientID, seq) pair that stays fixed across retries; each object entry
// keeps a bounded per-client window of applied stamps and their responses.
// A retry whose original was applied — but whose response was lost — is
// answered from the window instead of re-executing, so a non-idempotent
// method like AtomicLong.Add moves state exactly once per client call.
//
// The window lives inside the entry and travels with it: on the SMR path
// the stamp is recorded at apply time on every replica (the delivery order
// is total, so all replicas agree on it), and rebalancing serializes the
// window into the transfer snapshot. Wherever the object lands after a
// crash or view change, its dedup memory lands with it.
//
// Bounds: dedupWindowPerClient stamps per client, dedupMaxClients clients
// per object, both evicted FIFO. A window entry only matters while its
// client may still retry the call, so a window much deeper than the retry
// budget is wasted memory; eviction is counted in
// crucial_server_dedup_evictions_total for monitoring. Synchronization
// objects are excluded: their calls block server-side and replays of a
// coordination primitive (await, acquire) must actually execute.

const (
	// dedupWindowPerClient bounds remembered stamps per (object, client).
	dedupWindowPerClient = 64
	// dedupMaxClients bounds tracked clients per object.
	dedupMaxClients = 256
)

// dedupRecord remembers the outcome of one applied stamped invocation.
// Records ride inside transfer snapshots (appendDedup).
type dedupRecord struct {
	Seq     uint64
	Results []any
	Err     string // core.EncodeError form, "" for success
}

// clientWindow is one client's FIFO of applied stamps.
type clientWindow struct {
	Records []dedupRecord
}

// dedupState is an object's at-most-once memory. It is guarded by the
// entry mutex; the zero value is ready to use.
type dedupState struct {
	Clients map[uint64]*clientWindow
	// Order is the FIFO of client IDs for whole-client eviction.
	Order []uint64
}

// lookup returns the recorded outcome for a stamp, if the invocation was
// already applied and is still inside the window.
func (d *dedupState) lookup(client, seq uint64) (dedupRecord, bool) {
	w, ok := d.Clients[client]
	if !ok {
		return dedupRecord{}, false
	}
	for i := range w.Records {
		if w.Records[i].Seq == seq {
			return w.Records[i], true
		}
	}
	return dedupRecord{}, false
}

// record remembers an applied invocation's outcome, evicting FIFO beyond
// the bounds. It returns how many records were evicted (stamps forgotten,
// counted for monitoring; whole-client eviction counts every forgotten
// stamp of that client).
func (d *dedupState) record(client, seq uint64, results []any, errText string) int {
	evicted := 0
	if d.Clients == nil {
		d.Clients = make(map[uint64]*clientWindow)
	}
	w, ok := d.Clients[client]
	if !ok {
		if len(d.Order) >= dedupMaxClients {
			oldest := d.Order[0]
			d.Order = d.Order[1:]
			if old := d.Clients[oldest]; old != nil {
				evicted += len(old.Records)
			}
			delete(d.Clients, oldest)
		}
		w = &clientWindow{}
		d.Clients[client] = w
		d.Order = append(d.Order, client)
	}
	if len(w.Records) >= dedupWindowPerClient {
		drop := len(w.Records) - dedupWindowPerClient + 1
		w.Records = append(w.Records[:0], w.Records[drop:]...)
		evicted += drop
	}
	w.Records = append(w.Records, dedupRecord{Seq: seq, Results: results, Err: errText})
	return evicted
}

// clone deep-copies the state for a transfer snapshot, so the source
// object can keep executing while the snapshot is shipped.
func (d *dedupState) clone() dedupState {
	if len(d.Clients) == 0 {
		return dedupState{}
	}
	out := dedupState{
		Clients: make(map[uint64]*clientWindow, len(d.Clients)),
		Order:   append([]uint64(nil), d.Order...),
	}
	for id, w := range d.Clients {
		out.Clients[id] = &clientWindow{Records: append([]dedupRecord(nil), w.Records...)}
	}
	return out
}

// appendDedup appends the window in its transfer encoding: a client count,
// then per client in eviction order its ID and record count, and per
// record Seq, Results (a value list) and Err. It fails only when a
// result has no encoding (see core.AppendValues).
func appendDedup(dst []byte, d dedupState) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(d.Order)))
	var err error
	for _, id := range d.Order {
		var recs []dedupRecord
		if w := d.Clients[id]; w != nil {
			recs = w.Records
		}
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, id), uint64(len(recs)))
		for _, rec := range recs {
			if dst, err = core.AppendValues(binary.AppendUvarint(dst, rec.Seq), rec.Results); err != nil {
				return nil, fmt.Errorf("dedup record %d/%d: %w", id, rec.Seq, err)
			}
			dst = core.AppendString(dst, rec.Err)
		}
	}
	return dst, nil
}

// readDedup reads an appendDedup window. A client listed twice is an
// error: no window holds one.
func readDedup(r *core.Reader) (d dedupState, err error) {
	n, err := r.Count(2)
	if err != nil || n == 0 {
		return dedupState{}, err
	}
	d.Clients = make(map[uint64]*clientWindow, n)
	d.Order = make([]uint64, n)
	for i := range d.Order {
		id, err := r.Uvarint()
		if err != nil {
			return dedupState{}, err
		}
		if d.Clients[id] != nil {
			return dedupState{}, fmt.Errorf("dedup client %d listed twice", id)
		}
		recs, err := r.Count(3)
		if err != nil {
			return dedupState{}, err
		}
		w := &clientWindow{}
		if recs > 0 {
			w.Records = make([]dedupRecord, recs)
		}
		for j := range w.Records {
			rec := &w.Records[j]
			if rec.Seq, err = r.Uvarint(); err == nil {
				if rec.Results, err = r.Values(); err == nil {
					rec.Err, err = r.Str()
				}
			}
			if err != nil {
				return dedupState{}, err
			}
		}
		d.Order[i], d.Clients[id] = id, w
	}
	return d, nil
}
