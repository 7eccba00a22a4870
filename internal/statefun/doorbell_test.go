package statefun

import "testing"

// offer rings d for addr.
func offer(t *testing.T, d *Doorbell, addr Address) {
	t.Helper()
	if _, err := d.Call(nopCtl{}, "Offer", []any{addr.Encode()}); err != nil {
		t.Fatal(err)
	}
}

// wait calls Wait on d; it must not block.
func wait(t *testing.T, d *Doorbell, nonce, cursor uint64) doorbellWake {
	t.Helper()
	res, err := d.Call(nopCtl{}, "Wait", []any{int64(nonce), int64(cursor)})
	w, err := decodeResult(res, err, decodeDoorbellWake)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Wait hands out the offers after the cursor and removes none of them, so
// a repeated Wait, or a second engine's, sees the same offers again.
func TestDoorbellWaitKeepsOffers(t *testing.T) {
	obj, err := NewDoorbell(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := obj.(*Doorbell)
	a, b := Address{FnType: "fn", ID: "a"}, Address{FnType: "fn", ID: "b"}
	first := wait(t, d, 0, 0)
	if !first.Relist || first.Nonce == 0 || first.Head != 0 {
		t.Fatalf("first Wait = %+v, want a re-list under a nonzero nonce", first)
	}
	offer(t, d, a)
	offer(t, d, b)
	for i := 0; i < 2; i++ {
		w := wait(t, d, first.Nonce, 0)
		if w.Relist || w.Head != 2 || len(w.Ready) != 2 || w.Ready[0] != a || w.Ready[1] != b {
			t.Fatalf("Wait %d from cursor 0 = %+v, want [a b] up to head 2", i, w)
		}
	}
	if w := wait(t, d, first.Nonce, 1); w.Relist || len(w.Ready) != 1 || w.Ready[0] != b {
		t.Fatalf("Wait from cursor 1 = %+v, want [b]", w)
	}
	if w := wait(t, d, first.Nonce^2, 2); !w.Relist || w.Nonce != first.Nonce {
		t.Fatalf("Wait under another nonce = %+v, want a re-list under %x", w, first.Nonce)
	}
}

// A cursor the ring has moved past, or one beyond the head, asks for a
// re-list instead of returning a partial list.
func TestDoorbellRelistsOutsideRing(t *testing.T) {
	d := &Doorbell{nonce: 7}
	a := Address{FnType: "fn", ID: "a"}
	for i := 0; i < doorbellRing+3; i++ {
		offer(t, d, a)
	}
	if len(d.ring) != doorbellRing {
		t.Fatalf("ring holds %d offers, want %d", len(d.ring), doorbellRing)
	}
	if w := wait(t, d, 7, 2); !w.Relist {
		t.Fatalf("Wait from a cursor behind the ring = %+v, want a re-list", w)
	}
	if w := wait(t, d, 7, 3); w.Relist || len(w.Ready) != doorbellRing {
		t.Fatalf("Wait from the ring's tail returned %d offers (re-list %v), want %d", len(w.Ready), w.Relist, doorbellRing)
	}
	if w := wait(t, d, 7, doorbellRing+4); !w.Relist {
		t.Fatalf("Wait from a cursor beyond the head = %+v, want a re-list", w)
	}
}
