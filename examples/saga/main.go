// Durable workflows (DESIGN.md §5i): an order saga on stateful
// functions. Each order instance walks reserve → charge → dispatch,
// with a compensating release when the payment declines; every step's
// state change and next message commit atomically, so the saga survives
// node crashes mid-flight with no step lost or doubled.
//
// Two modes:
//
//	go run ./examples/saga
//	    Self-contained: an in-process durable cluster, a batch of
//	    concurrent orders, and a node crash in the middle of them.
//
//	go run ./examples/saga -members n1=:7001,n2=:7002,n3=:7003
//	    Against a live dso-server cluster (started separately, ideally
//	    with -wal-dir for durability). The example hosts the handlers
//	    and a dispatch engine over a TCP client; kill and restart a
//	    server mid-run to watch the sagas resume. Inspect the mailbox
//	    traffic afterwards with dso-cli top/stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"crucial"
	"crucial/internal/apps/saga"
	"crucial/internal/client"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/statefun"
)

func main() {
	members := flag.String("members", "", "comma-separated id=addr pairs of a live cluster (empty: run an in-process cluster)")
	orders := flag.Int("orders", 10, "orders to place")
	stock := flag.Int64("stock", 8, "initial stock (orders beyond it fail and compensate)")
	flag.Parse()
	// Order instances are durable, so repeated runs against a live
	// cluster need distinct order keys — a placement reusing an id gets
	// the old saga's status back instead of starting a new one.
	runID = fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff)
	if *members == "" {
		os.Exit(runLocal(*orders, *stock))
	}
	os.Exit(runRemote(*members, *orders, *stock))
}

// runID distinguishes this process's order keys on a shared cluster.
var runID string

// placeAll runs the batch of sagas concurrently through place and
// prints a receipt summary.
func placeAll(ctx context.Context, place func(ctx context.Context, id string, po saga.PlaceOrder) (saga.Receipt, error), orders int, mid func()) bool {
	receipts := make([]saga.Receipt, orders)
	errs := make([]error, orders)
	var wg sync.WaitGroup
	for i := 0; i < orders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			receipts[i], errs[i] = place(ctx, fmt.Sprintf("order-%s-%03d", runID, i),
				saga.PlaceOrder{SKU: "widget", Qty: 1, Amount: 40, Account: "acme"})
		}(i)
		if mid != nil && i == orders/2 {
			mid()
		}
	}
	wg.Wait()
	var completed, failed int
	for i, r := range receipts {
		if errs[i] != nil {
			fmt.Printf("  order-%03d: ERROR %v\n", i, errs[i])
			continue
		}
		switch r.Status {
		case saga.PhaseCompleted:
			completed++
		default:
			failed++
			fmt.Printf("  order-%03d: %s (%s)\n", i, r.Status, r.Reason)
		}
	}
	fmt.Printf("%d sagas completed, %d failed-and-compensated\n", completed, failed)
	return completed+failed == orders
}

// runLocal drives the saga on an in-process durable cluster and crashes
// a node while half the orders are still in flight.
func runLocal(orders int, stock int64) int {
	rt, err := crucial.NewLocalRuntime(crucial.Options{
		DSONodes:   3,
		RF:         2,
		Durability: crucial.DefaultDurabilityPolicy(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	defer func() { _ = rt.Close() }()
	h, err := saga.Deploy(rt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := h.Restock(ctx, "widget", stock); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	if err := h.Deposit(ctx, "acme", int64(orders)*40); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	fmt.Printf("placing %d orders over %d units of stock (3 nodes, RF 2, durability on)\n", orders, stock)
	crash := func() {
		view := rt.Cluster().Dir.View()
		victim := view.Members[len(view.Members)-1]
		fmt.Printf("  crashing node %s mid-batch...\n", victim)
		if err := rt.Cluster().CrashNode(victim); err != nil {
			fmt.Fprintln(os.Stderr, "saga: crash:", err)
		}
	}
	if !placeAll(ctx, h.Place, orders, crash) {
		return 1
	}
	return report(ctx, func(v any) (bool, error) { return h.Inventory.State(ctx, "widget", v) },
		func(v any) (bool, error) { return h.Payment.State(ctx, "acme", v) })
}

// runRemote drives the saga against a live dso-server cluster: the
// example process hosts the handlers and the dispatch engine, the
// cluster hosts the durable mailboxes.
func runRemote(members string, orders int, stock int64) int {
	view, err := staticView(members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	// Registers the mailbox wire types process-wide as a side effect.
	_ = crucial.NewTypeRegistry()
	c, err := client.New(client.Config{
		Transport:      rpc.TCP{},
		Views:          client.NewRemoteViews(rpc.TCP{}, view),
		AttemptTimeout: 2 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	defer func() { _ = c.Close() }()

	hs := statefun.NewHandlerSet()
	if err := saga.RegisterAll(hs); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	eng := statefun.NewEngine(statefun.EngineConfig{
		Invoker: c,
		Runner:  statefun.NewProc(c, hs, statefun.ProcOptions{}),
	})
	defer eng.Close()
	sender := statefun.NewSender(c, fmt.Sprintf("saga-client/%d", os.Getpid()), 0)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	send := func(to statefun.Address, name string, body any) error {
		data, err := statefun.EncodeBody(body)
		if err != nil {
			return err
		}
		return sender.Send(ctx, to, name, data, "")
	}
	if err := send(statefun.Address{FnType: saga.FnInventory, ID: "widget"}, "restock", saga.Step{Qty: stock}); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	if err := send(statefun.Address{FnType: saga.FnPayment, ID: "acme"}, "deposit", saga.Step{Amount: int64(orders) * 40}); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	fmt.Printf("placing %d orders over %d units of stock against %s\n", orders, stock, members)
	fmt.Println("(kill and restart a dso-server mid-run to watch the sagas resume)")
	place := func(ctx context.Context, id string, po saga.PlaceOrder) (saga.Receipt, error) {
		to := statefun.Address{FnType: saga.FnOrder, ID: id}
		body, err := statefun.EncodeBody(po)
		if err != nil {
			return saga.Receipt{}, err
		}
		replyKey := "saga/reply/" + id
		if err := sender.Send(ctx, to, "place", body, replyKey); err != nil {
			return saga.Receipt{}, err
		}
		raw, err := statefun.AwaitReply(ctx, c, replyKey)
		if err != nil {
			return saga.Receipt{}, err
		}
		var r saga.Receipt
		return r, statefun.DecodeBody(raw, &r)
	}
	if !placeAll(ctx, place, orders, nil) {
		return 1
	}
	return report(ctx,
		func(v any) (bool, error) {
			return statefun.StateOf(ctx, c, statefun.Address{FnType: saga.FnInventory, ID: "widget"}, 0, v)
		},
		func(v any) (bool, error) {
			return statefun.StateOf(ctx, c, statefun.Address{FnType: saga.FnPayment, ID: "acme"}, 0, v)
		})
}

// report prints the final inventory and payment books.
func report(_ context.Context, invState, payState func(v any) (bool, error)) int {
	var inv saga.InventoryState
	if _, err := invState(&inv); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	var pay saga.PaymentState
	if _, err := payState(&pay); err != nil {
		fmt.Fprintln(os.Stderr, "saga:", err)
		return 1
	}
	fmt.Printf("inventory: %d left in stock, %d units in completed reservations\n",
		inv.Stock, sum(inv.Reserved))
	fmt.Printf("payment:   %d remaining balance, %d charged across %d orders\n",
		pay.Balance, sum(pay.Charged), len(pay.Charged))
	return 0
}

// sum totals a per-order ledger.
func sum(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

// staticView builds the seed membership view from an id=addr list.
func staticView(members string) (membership.View, error) {
	v := membership.View{ID: 1, Addrs: make(map[ring.NodeID]string)}
	for _, pair := range strings.Split(members, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || addr == "" {
			return membership.View{}, fmt.Errorf("bad member %q, want id=addr", pair)
		}
		v.Addrs[ring.NodeID(id)] = addr
		v.Members = append(v.Members, ring.NodeID(id))
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i] < v.Members[j] })
	return v, nil
}
