package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/rpc"
)

// ctlKey tags the contexts of ctlProbe's calls.
type ctlKey struct{}

// ctlProbe is a synchronization object whose calls report the context
// their Ctl gives them. Park waits until Open, Poke only reports, Parked
// counts the Park calls that have entered the monitor, Tick starts a
// goroutine that keeps broadcasting after Tick returned, until Stop, and
// Sleep waits for a deadline that only those broadcasts notice.
type ctlProbe struct {
	open     bool
	parked   int
	deadline time.Time
	stop     chan struct{}
}

const typeCtlProbe = "CtlProbe"

func (p *ctlProbe) Call(ctl core.Ctl, method string, _ []any) ([]any, error) {
	var err error
	switch method {
	case "Park":
		p.parked++
		err = ctl.Wait(func() bool { return p.open })
	case "Poke":
		ctl.Broadcast()
	case "Parked":
		return []any{p.parked}, nil
	case "Open":
		p.open = true
		ctl.Broadcast()
	case "Tick":
		p.deadline, p.stop = time.Now().Add(20*time.Millisecond), make(chan struct{})
		go func(stop <-chan struct{}) {
			for t := time.NewTicker(time.Millisecond); ; {
				select {
				case <-t.C:
					ctl.Broadcast()
				case <-stop:
					t.Stop()
					return
				}
			}
		}(p.stop)
	case "Sleep":
		err = ctl.Wait(func() bool { return !time.Now().Before(p.deadline) })
	case "Stop":
		close(p.stop)
	}
	var tag any
	if ctx := ctl.Context(); ctx != nil {
		tag = ctx.Value(ctlKey{})
	}
	return []any{tag}, err
}

// startCtlNode starts a node of one whose registry has ctlProbe.
func startCtlNode(t *testing.T) *Node {
	t.Helper()
	cfg := validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour))
	cfg.Registry = objects.BuiltinRegistry()
	cfg.Registry.MustRegister(core.TypeInfo{Name: typeCtlProbe, Synchronization: true,
		New: func([]any) (core.Object, error) { return &ctlProbe{}, nil }})
	return startNode(t, cfg)
}

// ctlCall is one call on the probe at n, under a context tagged tag; it
// returns the tag the call's Ctl reported.
func ctlCall(ctx context.Context, n *Node, key, method, tag string) (any, error) {
	ctx = context.WithValue(ctx, ctlKey{}, tag)
	res, err := n.invokeLocal(ctx, core.Invocation{Ref: core.Ref{Type: typeCtlProbe, Key: key}, Method: method})
	if len(res) == 0 {
		return nil, err
	}
	return res[0], err
}

// Every call on an object shares the record's one Ctl, so it carries the
// running call's context. A call parked in Wait while another call runs
// on the object still sees its own context once it wakes, and cancelling
// it wakes that call alone, although every blocked Wait on the object arms
// its watcher with the record's one wake closure.
func TestWaitKeepsItsOwnContext(t *testing.T) {
	n := startCtlNode(t)
	bg := context.Background()
	type outcome struct {
		tag any
		err error
	}
	park := func(ctx context.Context, tag string) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			got, err := ctlCall(ctx, n, "p", "Park", tag)
			out <- outcome{got, err}
		}()
		return out
	}
	ctxA, cancelA := context.WithCancel(bg)
	defer cancelA()
	ctxE, cancelE := context.WithCancel(bg)
	defer cancelE()
	a, c, e := park(ctxA, "A"), park(bg, "C"), park(ctxE, "E")
	// Parked runs under the monitor, which a Park call releases only once
	// it sleeps in Wait: a count of three means all three sleep.
	eventually(t, says("the three Park calls never parked"), func() bool {
		got, err := ctlCall(bg, n, "p", "Parked", "")
		return err == nil && got == 3
	})
	if got, err := ctlCall(bg, n, "p", "Poke", "B"); err != nil || got != "B" {
		t.Fatalf("Poke saw context %v (err %v), want B", got, err)
	}
	// Cancelling one waiter's context wakes that waiter and ends its Wait;
	// the others, woken by the same broadcast, go back to sleep.
	cancelled := func(out <-chan outcome, tag string, others ...<-chan outcome) {
		t.Helper()
		select {
		case o := <-out:
			if !errors.Is(o.err, context.Canceled) || o.tag != tag {
				t.Fatalf("cancelled Park: context %v, err %v; want %s, context.Canceled", o.tag, o.err, tag)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cancelling %s did not wake its Park", tag)
		}
		for _, other := range others {
			select {
			case o := <-other:
				t.Fatalf("cancelling %s ended another Park too (context %v, err %v)", tag, o.tag, o.err)
			default:
			}
		}
	}
	cancelA()
	cancelled(a, "A", c, e)
	cancelE()
	cancelled(e, "E", c)
	if _, err := ctlCall(bg, n, "p", "Open", "D"); err != nil {
		t.Fatal(err)
	}
	if o := <-c; o.err != nil || o.tag != "C" {
		t.Fatalf("opened Park: context %v, err %v; want C", o.tag, o.err)
	}
}

// A Broadcast after the call that armed it returned, the way the
// statefun doorbell's park timer calls it, is safe while other calls run
// on the object, and wakes a later call's Wait.
func TestBroadcastAfterCallReturns(t *testing.T) {
	n := startCtlNode(t)
	bg := context.Background()
	if _, err := ctlCall(bg, n, "t", "Tick", "T"); err != nil {
		t.Fatal(err)
	}
	defer func() { _, _ = ctlCall(bg, n, "t", "Stop", "") }()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if got, err := ctlCall(ctx, n, "t", "Sleep", "S"); err != nil || got != "S" {
		t.Fatalf("Sleep woken by the ticker: context %v, err %v; want S", got, err)
	}
	for i := 0; i < 100; i++ { // calls that set the Ctl's context while it ticks
		if got, err := ctlCall(bg, n, "t", "Poke", "P"); err != nil || got != "P" {
			t.Fatalf("Poke saw context %v (err %v), want P", got, err)
		}
	}
}
