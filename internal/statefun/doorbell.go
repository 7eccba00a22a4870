package statefun

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"crucial/internal/core"
)

// TypeDoorbell is the registry name of the synchronization object that
// wakes dispatch engines.
const TypeDoorbell = "StatefunDoorbell"

// DoorbellKey is the key of the one doorbell that every activation rings
// and every engine waits on.
const DoorbellKey = "statefun/.doorbell"

// doorbellRef names the doorbell. Synchronization objects live on one
// node (rf=1) and are never persisted.
var doorbellRef = core.Ref{Type: TypeDoorbell, Key: DoorbellKey}

const (
	// doorbellRing is how many offers the doorbell remembers. An engine
	// whose cursor falls further behind re-lists the directory instead.
	doorbellRing = 4096
	// doorbellPark bounds how long one Wait parks on the monitor. It
	// frees a waiter stranded on a copy that is no longer the owner (the
	// object moved), and it stays below the client attempt timeouts
	// used under fault injection, so an idle wait is not mistaken for a
	// lost response.
	doorbellPark = 100 * time.Millisecond
)

// Doorbell is the wake-up path of the dispatch layer (DESIGN.md §5i):
// a bounded ring of the instances whose mailboxes went from empty to
// nonempty, stamped with a random nonce drawn when the object is
// created. Offer appends an address; Wait(nonce, cursor) parks on the
// object monitor until an offer lands after cursor, then returns the
// offers after it without removing them, so a retried or abandoned
// Wait loses nothing and every engine sees every offer. A nonce the
// caller has not seen (the doorbell was created anew: first use, owner
// crash, the key moved) or a cursor outside the ring tells the engine to
// re-list the directory instead.
//
// Init: none. Methods: Offer(address frame), Wait(nonce, cursor int64)
// returning one doorbellWake frame.
type Doorbell struct {
	nonce uint64
	head  uint64    // offers made so far
	ring  []Address // offer p sits at ring[p%doorbellRing]
}

// NewDoorbell builds an empty doorbell with a fresh nonce (never 0, the
// nonce of an engine that has not waited yet).
func NewDoorbell(_ []any) (core.Object, error) {
	return &Doorbell{nonce: rand.Uint64() | 1}, nil
}

// Call dispatches a doorbell method.
func (d *Doorbell) Call(ctl core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Offer":
		arg, err := core.Arg[[]byte](args, 0)
		if err != nil {
			return nil, err
		}
		addr, err := DecodeAddress(arg)
		if err != nil {
			return nil, err
		}
		if len(d.ring) < doorbellRing {
			d.ring = append(d.ring, addr)
		} else {
			d.ring[d.head%doorbellRing] = addr
		}
		d.head++
		ctl.Broadcast()
		return nil, nil
	case "Wait":
		nonce, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		cursor, err := core.Int64Arg(args, 1)
		if err != nil {
			return nil, err
		}
		if uint64(nonce) == d.nonce && uint64(cursor) == d.head {
			// Park until an offer lands or the park ends. A timer firing
			// between the condition check and the monitor sleep is missed,
			// and the waiter then sleeps until the next offer — as it
			// would without a timer.
			deadline := time.Now().Add(doorbellPark)
			t := time.AfterFunc(doorbellPark, ctl.Broadcast)
			err := ctl.Wait(func() bool { return uint64(cursor) != d.head || !time.Now().Before(deadline) })
			t.Stop()
			if err != nil {
				return nil, err
			}
		}
		return []any{d.wake(uint64(nonce), uint64(cursor)).encode()}, nil
	default:
		return nil, fmt.Errorf("%w: Doorbell.%s", core.ErrUnknownMethod, method)
	}
}

// wake answers a Wait from (nonce, cursor): the offers after cursor, or
// a re-list verdict when they are not all in the ring.
func (d *Doorbell) wake(nonce, cursor uint64) doorbellWake {
	w := doorbellWake{Nonce: d.nonce, Head: d.head}
	if nonce != d.nonce || cursor > d.head || cursor < d.head-uint64(len(d.ring)) {
		w.Relist = true
		return w
	}
	for p := cursor; p < d.head; p++ {
		w.Ready = append(w.Ready, d.ring[p%doorbellRing])
	}
	return w
}

// doorbellWake is a Wait's answer: the doorbell's nonce and head, then
// either the offers between the caller's cursor and the head or Relist.
type doorbellWake struct {
	Nonce  uint64
	Head   uint64
	Relist bool
	Ready  []Address
}

func (w doorbellWake) encode() []byte {
	size := 0
	for _, a := range w.Ready {
		size += len(a.FnType) + len(a.ID)
	}
	b := core.NewFrame(tagDoorbellWake, size, 4+2*len(w.Ready))
	b = core.AppendBool(binary.AppendUvarint(binary.AppendUvarint(b, w.Nonce), w.Head), w.Relist)
	b = binary.AppendUvarint(b, uint64(len(w.Ready)))
	for _, a := range w.Ready {
		b = appendAddress(b, a)
	}
	return b
}

func decodeDoorbellWake(data []byte) (doorbellWake, error) {
	v, err := core.DecodeFrame(data, tagDoorbellWake, func(r *core.Reader) (w doorbellWake, err error) {
		if w.Nonce, err = r.Uvarint(); err == nil {
			w.Head, err = r.Uvarint()
		}
		if err == nil {
			w.Relist, err = r.Bool()
		}
		n := 0
		if err == nil {
			n, err = r.Count(2)
		}
		if err == nil && n > 0 {
			w.Ready = make([]Address, n)
			for i := range w.Ready {
				if w.Ready[i], err = readAddress(r); err != nil {
					break
				}
			}
		}
		return w, err
	})
	if err != nil {
		return doorbellWake{}, decodeError("doorbell wake", err)
	}
	return v, nil
}

// ringDoorbell offers addr to every engine.
func ringDoorbell(ctx context.Context, inv core.Invoker, addr Address) error {
	_, err := inv.InvokeObject(ctx, core.Invocation{Ref: doorbellRef, Method: "Offer", Args: []any{addr.Encode()}})
	return err
}

// waitDoorbell parks on the doorbell until an offer lands after cursor.
func waitDoorbell(ctx context.Context, inv core.Invoker, nonce, cursor uint64) (doorbellWake, error) {
	res, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:    doorbellRef,
		Method: "Wait",
		Args:   []any{int64(nonce), int64(cursor)},
	})
	return decodeResult(res, err, decodeDoorbellWake)
}

var _ core.Object = (*Doorbell)(nil)
