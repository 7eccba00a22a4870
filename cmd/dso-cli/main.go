// Command dso-cli is a one-shot client for a running DSO cluster (see
// cmd/dso-server): it invokes one method on one shared object and prints
// the results. Useful for poking at a deployment.
//
// Examples:
//
//	dso-cli -members n1=:7001,n2=:7002 -type AtomicLong -key counter -method AddAndGet -arg 5
//	dso-cli -members n1=:7001,n2=:7002 -type Map -key users -method Put -arg alice -arg admin
//	dso-cli -members n1=:7001,n2=:7002 -type CyclicBarrier -key b -init 3 -method Await
//	dso-cli stats -members n1=:7001,n2=:7002
//	dso-cli top -members n1=:7001,n2=:7002 -rf 2 -n 10
//	dso-cli cache -members n1=:7001,n2=:7002
//	dso-cli trace -members n1=:7001,n2=:7002 -o trace.json
//	dso-cli chaos partition -members n1=:7001,n2=:7002 -group n1 -group n2
//	dso-cli chaos restart -members n1=:7001,n2=:7002 -node n2
//	dso-cli rebalance status -members n1=:7001,n2=:7002
//	dso-cli migrate -members n1=:7001,n2=:7002 -type AtomicLong -key hot -targets n2
//	dso-cli migrate -members n1=:7001,n2=:7002 -type AtomicLong -key hot -unpin
//
// The stats subcommand fetches every node's counters and telemetry
// snapshot and prints a per-node breakdown plus a cluster-wide merge
// (latency histograms with p50/p95/p99 when the cluster runs
// instrumented). Nodes that are down are skipped with a warning; the
// command fails only when no node answers.
//
// The top subcommand drains every node's per-object heavy-hitter tracker
// (KindObjectStats), merges the snapshots cluster-wide, and renders the
// hottest objects with their invocation rate, read/write mix, latency
// percentiles (p50/p99/p999) and owning replica group on the current
// ring. Pass -rf to match the servers' replication factor so the GROUP
// column shows the true replica set.
//
// The cache subcommand prints the read-path slice of the same counters:
// lease grants/refusals/revocations, expiry waits on the write path, and
// reads the primary served from its own copy without an SMR round — plus,
// from a node whose process also hosts caching clients (the in-process
// runtime), their cache.* counters: hits, misses,
// invalidations, lease expiries and cache.stale_grants, the grants a
// client paid a round trip for and had to discard. stats shows them too.
// Meaningful when nodes run with -lease-ttl and -telemetry.
//
// The trace subcommand drains the span ring of every reachable node
// (clock-aligned, merged by trace ID) and writes Chrome/Perfetto
// trace-event JSON — open the file at https://ui.perfetto.dev or
// chrome://tracing. Use `-o -` for stdout.
//
// Arguments are passed as int64 when they parse as integers, float64 when
// they parse as decimals, and strings otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"crucial/internal/client"
	"crucial/internal/collector"
	"crucial/internal/core"
	"crucial/internal/costmodel"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// argList collects repeatable -arg/-init flags.
type argList []any

func (a *argList) String() string { return fmt.Sprint([]any(*a)) }

// Set parses one value: int64, then float64, then string.
func (a *argList) Set(s string) error {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		*a = append(*a, n)
		return nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		*a = append(*a, f)
		return nil
	}
	*a = append(*a, s)
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats":
			os.Exit(runStats(os.Args[2:]))
		case "top":
			os.Exit(runTop(os.Args[2:]))
		case "cache":
			os.Exit(runCache(os.Args[2:]))
		case "trace":
			os.Exit(runTrace(os.Args[2:]))
		case "chaos":
			os.Exit(runChaos(os.Args[2:]))
		case "rebalance":
			os.Exit(runRebalance(os.Args[2:]))
		case "migrate":
			os.Exit(runMigrate(os.Args[2:]))
		}
	}
	os.Exit(run())
}

// runTrace implements `dso-cli trace`: collect every reachable node's span
// ring (clock-aligned over dedicated probes), merge by trace ID, and export
// Chrome/Perfetto trace-event JSON.
func runTrace(argv []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		members = fs.String("members", "", "comma-separated id=addr pairs of the cluster")
		timeout = fs.Duration("timeout", 30*time.Second, "per-node RPC timeout")
		out     = fs.String("o", "trace.json", "output file for trace-event JSON (\"-\" for stdout)")
	)
	_ = fs.Parse(argv)

	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}

	col := &collector.Collector{}
	reached := 0
	for _, id := range view.Members {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err := col.FetchNode(ctx, rpc.TCP{}, view.Addrs[id])
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dso-cli: warning: node %s unreachable, skipping: %v\n", id, err)
			continue
		}
		reached++
	}
	if reached == 0 {
		fmt.Fprintln(os.Stderr, "dso-cli: no node answered; nothing to export")
		return 1
	}

	spans := col.Spans()
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dso-cli:", err)
			return 1
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if err := telemetry.WriteTraceEvents(w, spans); err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli: export:", err)
		return 1
	}
	if *out != "-" {
		fmt.Printf("wrote %d spans from %d/%d nodes to %s (open at https://ui.perfetto.dev)\n",
			len(spans), reached, len(view.Members), *out)
	}
	return 0
}

// runChaos implements `dso-cli chaos <op>`: fault-injection commands for a
// running cluster.
//
//	dso-cli chaos partition -members ... -group n1 -group n2,n3
//	dso-cli chaos partition-one-way -members ... -from n1 -to n2,n3
//	dso-cli chaos heal -members ...
//	dso-cli chaos crash -members ... -node n2
//	dso-cli chaos restart -members ... -node n2
//
// Partition commands are broadcast to every member (each node applies them
// to its local chaos engine); crash/restart go to the named node only,
// whose supervisor (dso-server -chaos) bounces it.
func runChaos(argv []string) int {
	if len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "dso-cli chaos: missing op (partition|partition-one-way|heal|crash|restart)")
		return 1
	}
	op := argv[0]
	fs := flag.NewFlagSet("chaos "+op, flag.ExitOnError)
	var (
		members = fs.String("members", "", "comma-separated id=addr pairs of the cluster")
		node    = fs.String("node", "", "target node for crash/restart")
		from    = fs.String("from", "", "comma-separated source group for partition-one-way")
		to      = fs.String("to", "", "comma-separated destination group for partition-one-way")
		timeout = fs.Duration("timeout", 10*time.Second, "per-node RPC timeout")
		groups  groupList
	)
	fs.Var(&groups, "group", "comma-separated partition group (repeatable)")
	_ = fs.Parse(argv[1:])

	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}

	cmd := server.ChaosCmd{Op: op}
	targets := view.Members
	switch op {
	case "partition":
		if len(groups) < 2 {
			fmt.Fprintln(os.Stderr, "dso-cli chaos partition: need at least two -group")
			return 1
		}
		cmd.Groups = groups
	case "partition-one-way":
		cmd.From = splitGroup(*from)
		cmd.To = splitGroup(*to)
		if len(cmd.From) == 0 || len(cmd.To) == 0 {
			fmt.Fprintln(os.Stderr, "dso-cli chaos partition-one-way: need -from and -to")
			return 1
		}
	case "heal":
	case "crash", "restart":
		if *node == "" {
			fmt.Fprintf(os.Stderr, "dso-cli chaos %s: need -node\n", op)
			return 1
		}
		if _, ok := view.Addrs[ring.NodeID(*node)]; !ok {
			fmt.Fprintf(os.Stderr, "dso-cli chaos: node %q not in member list\n", *node)
			return 1
		}
		targets = []ring.NodeID{ring.NodeID(*node)}
	default:
		fmt.Fprintf(os.Stderr, "dso-cli chaos: unknown op %q\n", op)
		return 1
	}

	payload, err := core.EncodeValue(cmd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	applied := 0
	for _, id := range targets {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err := sendChaos(ctx, view.Addrs[id], payload)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dso-cli: warning: node %s: %v\n", id, err)
			continue
		}
		applied++
	}
	if applied == 0 {
		fmt.Fprintln(os.Stderr, "dso-cli: no node accepted the chaos command")
		return 1
	}
	fmt.Printf("chaos %s applied on %d/%d node(s)\n", op, applied, len(targets))
	return 0
}

// sendChaos performs one KindChaos round-trip against a node.
func sendChaos(ctx context.Context, addr string, payload []byte) error {
	conn, err := rpc.TCP{}.Dial(addr)
	if err != nil {
		return err
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()
	_, err = rc.Call(ctx, server.KindChaos, payload)
	return err
}

// groupList collects repeatable -group flags, each a comma-separated node
// list.
type groupList [][]string

func (g *groupList) String() string { return fmt.Sprint([][]string(*g)) }

func (g *groupList) Set(s string) error {
	grp := splitGroup(s)
	if len(grp) == 0 {
		return fmt.Errorf("empty group")
	}
	*g = append(*g, grp)
	return nil
}

func splitGroup(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// runStats implements `dso-cli stats`: one KindStats RPC per member, a
// per-node report, and a merged cluster-wide metrics snapshot.
func runStats(argv []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var (
		members = fs.String("members", "", "comma-separated id=addr pairs of the cluster")
		timeout = fs.Duration("timeout", 30*time.Second, "per-node RPC timeout")
	)
	_ = fs.Parse(argv)

	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var merged telemetry.Snapshot
	reached := 0
	for _, id := range view.Members {
		snap, err := fetchSnapshot(ctx, view.Addrs[id])
		if err != nil {
			// A down node must not hide the rest of the cluster: warn,
			// skip, and report a partial merge below.
			fmt.Fprintf(os.Stderr, "dso-cli: warning: node %s unreachable, skipping: %v\n", id, err)
			continue
		}
		reached++
		fmt.Printf("node %s: objects=%d invocations=%d transfers=%d smr_ops=%d\n",
			snap.ID, snap.Objects, snap.Stats.Invocations, snap.Stats.Transfers, snap.Stats.SMROps)
		if !snap.Metrics.Empty() {
			fmt.Print(indent(snap.Metrics.String(), "  "))
		}
		merged = merged.Merge(snap.Metrics)
	}
	if reached == 0 {
		fmt.Fprintln(os.Stderr, "dso-cli: no node answered")
		return 1
	}
	if !merged.Empty() && len(view.Members) > 1 {
		fmt.Printf("cluster (merged, %d/%d nodes):\n", reached, len(view.Members))
		fmt.Print(indent(merged.String(), "  "))
	}
	printStorageCost(merged.Counters)
	return 0
}

// printStorageCost prices the durability tier's cold-storage traffic at
// the paper's 2019 S3 rates (Table 3 vintage): every WAL flush, snapshot
// blob and manifest write is a PUT-class request, every recovery read a
// GET. Storage rent is omitted — the log is truncated behind each
// checkpoint, so resident bytes stay near one checkpoint's size and the
// request charges dominate at experiment timescales.
func printStorageCost(counters map[string]uint64) {
	puts := counters[telemetry.MetStoragePuts] + counters[telemetry.MetStorageLists]
	gets := counters[telemetry.MetStorageGets]
	if puts == 0 && gets == 0 {
		return
	}
	bytes := counters[telemetry.MetStoragePutBytes]
	cost := costmodel.S3Cost(puts, gets, 0, 0)
	fmt.Printf("storage (durability tier): %d put/list, %d get, %.1f MB written, est. $%.6f in S3 requests\n",
		puts, gets, float64(bytes)/(1<<20), cost)
}

// cachePrefixes selects the read-path metrics out of a node snapshot:
// server-side lease-table counters plus any cache.* counters a node-local
// cache might report.
var cachePrefixes = []string{"server.lease", "server.local_reads", "cache."}

// runCache implements `dso-cli cache`: the lease/read-path slice of every
// node's counters — grants and refusals, synchronous revocations, expiry
// waits on the write path, and how many reads the primary answered from
// its own copy without an SMR round.
func runCache(argv []string) int {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	var (
		members = fs.String("members", "", "comma-separated id=addr pairs of the cluster")
		timeout = fs.Duration("timeout", 30*time.Second, "per-node RPC timeout")
	)
	_ = fs.Parse(argv)

	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	merged := make(map[string]uint64)
	reached := 0
	for _, id := range view.Members {
		snap, err := fetchSnapshot(ctx, view.Addrs[id])
		if err != nil {
			fmt.Fprintf(os.Stderr, "dso-cli: warning: node %s unreachable, skipping: %v\n", id, err)
			continue
		}
		reached++
		rows := cacheCounters(snap.Metrics.Counters)
		fmt.Printf("node %s:\n", snap.ID)
		if len(rows) == 0 {
			fmt.Println("  (no lease activity — is the node running with -lease-ttl and -telemetry?)")
			continue
		}
		printCounterRows(rows)
		for k, v := range rows {
			merged[k] += v
		}
	}
	if reached == 0 {
		fmt.Fprintln(os.Stderr, "dso-cli: no node answered")
		return 1
	}
	if len(merged) > 0 && len(view.Members) > 1 {
		fmt.Printf("cluster (merged, %d/%d nodes):\n", reached, len(view.Members))
		printCounterRows(merged)
	}
	return 0
}

// cacheCounters filters a counter map down to the read-path slice.
func cacheCounters(counters map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range counters {
		for _, p := range cachePrefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v
				break
			}
		}
	}
	return out
}

// printCounterRows prints counters sorted by name, indented.
func printCounterRows(rows map[string]uint64) {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %d\n", n, rows[n])
	}
}

// fetchSnapshot performs one KindStats round-trip against a node.
func fetchSnapshot(ctx context.Context, addr string) (server.Snapshot, error) {
	conn, err := rpc.TCP{}.Dial(addr)
	if err != nil {
		return server.Snapshot{}, err
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()
	raw, err := rc.Call(ctx, server.KindStats, nil)
	if err != nil {
		return server.Snapshot{}, err
	}
	var snap server.Snapshot
	if err := core.DecodeValue(raw, &snap); err != nil {
		return server.Snapshot{}, err
	}
	return snap, nil
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	var b strings.Builder
	for _, l := range lines {
		if l != "" {
			b.WriteString(prefix)
		}
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func run() int {
	var (
		members = flag.String("members", "", "comma-separated id=addr pairs of the cluster")
		typ     = flag.String("type", "AtomicLong", "shared object type name")
		key     = flag.String("key", "", "shared object key")
		method  = flag.String("method", "Get", "method to invoke")
		persist = flag.Bool("persist", false, "treat the object as persistent (replicated)")
		timeout = flag.Duration("timeout", 30*time.Second, "call timeout")
		args    argList
		init    argList
	)
	flag.Var(&args, "arg", "method argument (repeatable)")
	flag.Var(&init, "init", "constructor argument, used on first access (repeatable)")
	flag.Parse()

	if *key == "" {
		fmt.Fprintln(os.Stderr, "dso-cli: -key is required")
		return 1
	}
	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	// RemoteViews rather than a static view: a key the rebalancer pinned
	// routes by the cluster's directive table, which only the cluster
	// knows — the -members list merely seeds the contact points.
	c, err := client.New(client.Config{
		Transport: rpc.TCP{},
		Views:     client.NewRemoteViews(rpc.TCP{}, view),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	defer func() { _ = c.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	results, err := c.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: *typ, Key: *key},
		Method:  *method,
		Args:    args,
		Init:    init,
		Persist: *persist,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Println("ok")
		return 0
	}
	for _, r := range results {
		fmt.Printf("%v\n", r)
	}
	return 0
}

// staticView builds a single fixed view from an id=addr list.
func staticView(members string) (membership.View, error) {
	if members == "" {
		return membership.View{}, fmt.Errorf("missing -members")
	}
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
