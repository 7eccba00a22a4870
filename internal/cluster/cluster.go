// Package cluster assembles a complete DSO deployment — directory, server
// nodes, transport — behind one handle. Tests, benchmarks, examples and the
// FaaS runtime all start clusters through this package; cmd/dso-server
// wires the same pieces over TCP by hand.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/statefun"
	"crucial/internal/telemetry"
)

// Options configures a local cluster. The zero value is usable: one node,
// rf=1, no injected latency, in-memory transport, built-in object types.
type Options struct {
	// Nodes is the initial node count (default 1).
	Nodes int
	// RF is the replication factor for persistent objects (default 1).
	RF int
	// Profile injects simulated latencies (default none).
	Profile *netsim.Profile
	// Registry overrides the object type registry (default builtins).
	// Application object types must be registered before StartLocal.
	Registry *core.Registry
	// HeartbeatTimeout configures the failure detector threshold
	// (default 5s; experiments drive membership explicitly anyway).
	HeartbeatTimeout time.Duration
	// ServiceTime/ServiceConcurrency model per-node processing capacity
	// (see server.Config); zero disables the model.
	ServiceTime        time.Duration
	ServiceConcurrency int
	// Telemetry, when non-nil, is shared by every node and client of this
	// cluster: server-side spans and metrics land in the same bundle the
	// runtime samples. Nil disables instrumentation.
	Telemetry *telemetry.Telemetry
	// Chaos, when non-nil, threads every node and client connection
	// through this fault-injection engine: nodes get engine endpoints
	// named by their IDs, clients get "client-NN" endpoints, so engine
	// rules and partitions can address either side of any link. The
	// engine must wrap the same inner network the cluster uses (pass
	// chaos.New(rpc.NewMemNetwork(), ...) and the cluster adopts the
	// engine's inner transport).
	Chaos *chaos.Engine
	// ClientRetry, when non-zero, overrides the retry policy of clients
	// from NewClient — nemesis tests hand out generous budgets so calls
	// survive fault windows.
	ClientRetry core.RetryPolicy
	// ClientAttemptTimeout, when set, bounds each attempt of clients from
	// NewClient (see client.Config.AttemptTimeout).
	ClientAttemptTimeout time.Duration
	// PeerCallTimeout bounds inter-node RPC attempts (see
	// server.Config.PeerCallTimeout); nemesis tests lower it so lost SMR
	// frames are detected and aborted within a fault window.
	PeerCallTimeout time.Duration
	// LeaseTTL, when positive, enables the lease-based read path on every
	// node (see server.Config.LeaseTTL): client cache leases and the
	// primary's local-read fast path.
	LeaseTTL time.Duration
	// ClientCache, when true, attaches a lease-based read cache to every
	// client from NewClient (listener address "cache-client-NN", the
	// cluster registry). Requires LeaseTTL > 0 to be effective.
	ClientCache bool
	// ClientCacheObjects bounds resident entries per client cache
	// (default 1024).
	ClientCacheObjects int
	// Write once set the group-commit policy.
	//
	// Deprecated: nothing reads it. Group commit is every replicated
	// write's own behaviour (DESIGN.md §5e).
	Write core.WritePolicy
	// Rebalance is the elastic resharding policy applied to every node
	// (server.Config.Rebalance): with Enabled set and Telemetry attached,
	// the coordinator node live-migrates sustained heavy hitters onto the
	// least-loaded nodes. The zero value keeps placement hash-driven; see
	// core.RebalancePolicy.
	Rebalance core.RebalancePolicy
	// Durability is the cold-storage durability policy applied to every
	// node (server.Config.Durability): WAL on the write path, periodic
	// checkpoints, recovery on (re)start. Requires ColdStore; the zero
	// value keeps the cluster in-memory-only. See core.DurabilityPolicy.
	Durability core.DurabilityPolicy
	// ColdStore is the durable object store behind the durability tier,
	// shared by every node (each logs under its own key prefix). A
	// restarted or re-added node with the same identity recovers its
	// state from it — including after ALL nodes went down.
	ColdStore durability.Storage
}

// Cluster is a running DSO deployment.
type Cluster struct {
	// Dir is the membership service; experiments may drive it directly.
	Dir *membership.Directory
	// Transport is the in-memory network shared by nodes and clients.
	Transport rpc.Transport

	opts     Options
	registry *core.Registry
	profile  *netsim.Profile
	log      *slog.Logger

	mu        sync.Mutex
	nodes     map[ring.NodeID]*server.Node
	nextID    int
	clientSeq atomic.Uint64
	closed    bool
}

// StartLocal boots an in-process cluster over an in-memory network.
func StartLocal(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.RF <= 0 {
		opts.RF = 1
	}
	if opts.Profile == nil {
		opts.Profile = netsim.Zero()
	}
	if opts.Registry == nil {
		opts.Registry = objects.BuiltinRegistry()
	}
	// Every node must be able to materialize stateful-function mailboxes,
	// whether or not the application registered custom types.
	statefun.RegisterTypes(opts.Registry)
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	transport := rpc.Transport(rpc.NewMemNetwork())
	if opts.Chaos != nil {
		transport = opts.Chaos.Inner()
	}
	c := &Cluster{
		Dir:       membership.NewDirectory(opts.HeartbeatTimeout),
		Transport: transport,
		opts:      opts,
		registry:  opts.Registry,
		profile:   opts.Profile,
		log:       telemetry.Logger(telemetry.CompCluster),
		nodes:     make(map[ring.NodeID]*server.Node),
	}
	for i := 0; i < opts.Nodes; i++ {
		if _, err := c.AddNode(); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// AddNode starts one more DSO node and returns it. The directory installs
// a new view and existing nodes rebalance onto it (Fig. 8 "add a storage
// node").
func (c *Cluster) AddNode() (*server.Node, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("cluster: closed")
	}
	c.nextID++
	id := ring.NodeID(fmt.Sprintf("dso-%02d", c.nextID))
	c.mu.Unlock()

	n, err := server.Start(c.nodeConfig(id))
	if err != nil {
		return nil, fmt.Errorf("cluster: start node %s: %w", id, err)
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	c.log.Info("node added", "node", string(id))
	return n, nil
}

// nodeConfig builds the server config for a node name; AddNode and
// RestartNode share it so a restarted node comes back identical.
func (c *Cluster) nodeConfig(id ring.NodeID) server.Config {
	transport := c.Transport
	if c.opts.Chaos != nil {
		transport = c.opts.Chaos.Endpoint(string(id))
	}
	return server.Config{
		ID:                 id,
		Addr:               string(id),
		Transport:          transport,
		Registry:           c.registry,
		Directory:          c.Dir,
		Profile:            c.profile,
		RF:                 c.opts.RF,
		ServiceTime:        c.opts.ServiceTime,
		ServiceConcurrency: c.opts.ServiceConcurrency,
		PeerCallTimeout:    c.opts.PeerCallTimeout,
		LeaseTTL:           c.opts.LeaseTTL,
		Rebalance:          c.opts.Rebalance,
		Durability:         c.opts.Durability,
		ColdStore:          c.opts.ColdStore,
		Telemetry:          c.opts.Telemetry,
		Chaos:              c.opts.Chaos,
	}
}

// RestartNode brings a previously crashed or stopped node back under the
// same identity: it rejoins the directory, the new view is installed
// everywhere, and peers push it the objects it is now responsible for
// (state-transfer recovery). The in-memory transport frees a dead node's
// address on close, so the restart listens where the old incarnation did.
func (c *Cluster) RestartNode(id ring.NodeID) (*server.Node, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("cluster: closed")
	}
	if _, ok := c.nodes[id]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %s still running", id)
	}
	c.mu.Unlock()

	n, err := server.Start(c.nodeConfig(id))
	if err != nil {
		return nil, fmt.Errorf("cluster: restart node %s: %w", id, err)
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	c.log.Info("node restarted", "node", string(id))
	return n, nil
}

// CrashNode kills a node abruptly and informs the directory, like a failure
// detector would. Ephemeral objects on the node are lost; persistent ones
// survive on their replicas.
func (c *Cluster) CrashNode(id ring.NodeID) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if ok {
		delete(c.nodes, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", id)
	}
	c.log.Warn("node crashed", "node", string(id))
	err := n.Crash()
	c.Dir.Crash(id)
	return err
}

// StopNode shuts a node down gracefully (leave + state hand-off).
func (c *Cluster) StopNode(id ring.NodeID) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if ok {
		delete(c.nodes, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown node %s", id)
	}
	c.log.Info("node stopping gracefully", "node", string(id))
	return n.Close()
}

// NodeIDs lists live nodes in start order.
func (c *Cluster) NodeIDs() []ring.NodeID {
	v := c.Dir.View()
	return v.Members
}

// Node returns a live node by id (tests).
func (c *Cluster) Node(id ring.NodeID) (*server.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// NewClient opens a DSO client against this cluster. With a chaos engine
// configured, each client dials through its own "client-NN" endpoint so
// fault rules can target individual clients. With Options.ClientCache set,
// the client gets a lease-based read cache whose invalidation listener
// binds "cache-client-NN" — nemesis schedules partition that name to
// blackhole invalidations.
func (c *Cluster) NewClient() (*client.Client, error) {
	seq := c.clientSeq.Add(1)
	transport := c.Transport
	if c.opts.Chaos != nil {
		transport = c.opts.Chaos.Endpoint(fmt.Sprintf("client-%02d", seq))
	}
	cfg := client.Config{
		Transport:      transport,
		Views:          c.Dir,
		Profile:        c.profile,
		Retry:          c.opts.ClientRetry,
		AttemptTimeout: c.opts.ClientAttemptTimeout,
		Telemetry:      c.opts.Telemetry,
	}
	if c.opts.ClientCache {
		cfg.Cache = &client.CacheConfig{
			ListenAddr: fmt.Sprintf("cache-client-%02d", seq),
			Registry:   c.registry,
			MaxObjects: c.opts.ClientCacheObjects,
		}
	}
	return client.New(cfg)
}

// Telemetry exposes the cluster's telemetry bundle (nil when disabled).
func (c *Cluster) Telemetry() *telemetry.Telemetry { return c.opts.Telemetry }

// Registry exposes the cluster's type registry.
func (c *Cluster) Registry() *core.Registry { return c.registry }

// Profile exposes the cluster's latency profile.
func (c *Cluster) Profile() *netsim.Profile { return c.profile }

// RF exposes the replication factor.
func (c *Cluster) RF() int { return c.opts.RF }

// Close stops every node.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := make([]*server.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodes = make(map[ring.NodeID]*server.Node)
	c.mu.Unlock()

	var firstErr error
	for _, n := range nodes {
		// Crash, not Close: tearing the whole cluster down should not pay
		// for state hand-off between dying nodes.
		if err := n.Crash(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
