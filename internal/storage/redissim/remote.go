package redissim

import (
	"context"
	"fmt"
	"net"

	"crucial/internal/core"
	"crucial/internal/rpc"
)

// Store is the client-facing surface of a Redis-like deployment. Cluster
// implements it in process; RemoteCluster implements it across the RPC
// layer, paying the same serialization and transport costs as the DSO
// client — which is what makes throughput comparisons between the two
// systems fair (real Redis clients speak RESP over TCP, not function
// calls).
type Store interface {
	Get(ctx context.Context, key string) (string, bool, error)
	Set(ctx context.Context, key, value string) error
	IncrBy(ctx context.Context, key string, delta int64) (int64, error)
	Eval(ctx context.Context, name string, keys []string, args ...any) (any, error)
}

var (
	_ Store = (*Cluster)(nil)
	_ Store = (*RemoteCluster)(nil)
)

// request/response are the gob wire format of the RPC front.
type request struct {
	Op    string // "get" | "set" | "incrby" | "eval"
	Key   string
	Value string
	Delta int64
	Name  string
	Keys  []string
	Args  []any
}

type response struct {
	Str string
	OK  bool
	I   int64
	Any any
	Err string
}

// Serve exposes a cluster over the RPC layer at addr, returning the
// server for shutdown.
func Serve(c *Cluster, transport rpc.Transport, addr string) (*rpc.Server, error) {
	l, err := transport.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("redissim: listen %s: %w", addr, err)
	}
	srv := rpc.NewServer(func(ctx context.Context, _ uint8, payload []byte) ([]byte, error) {
		var req request
		if err := core.DecodeValue(payload, &req); err != nil {
			return nil, err
		}
		var resp response
		switch req.Op {
		case "get":
			v, ok, err := c.Get(ctx, req.Key)
			resp = response{Str: v, OK: ok, Err: errString(err)}
		case "set":
			err := c.Set(ctx, req.Key, req.Value)
			resp = response{Err: errString(err)}
		case "incrby":
			n, err := c.IncrBy(ctx, req.Key, req.Delta)
			resp = response{I: n, Err: errString(err)}
		case "eval":
			v, err := c.Eval(ctx, req.Name, req.Keys, req.Args...)
			resp = response{Any: v, Err: errString(err)}
		default:
			resp = response{Err: fmt.Sprintf("redissim: unknown op %q", req.Op)}
		}
		return core.EncodeValue(resp)
	})
	go func() { _ = srv.Serve(l) }()
	return srv, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// RemoteCluster is the RPC client of a served cluster.
type RemoteCluster struct {
	c *rpc.Client
}

// Dial connects to a served cluster.
func Dial(transport rpc.Transport, addr string) (*RemoteCluster, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("redissim: dial %s: %w", addr, err)
	}
	return &RemoteCluster{c: rpc.NewClient(conn)}, nil
}

// NewRemoteCluster wraps an existing connection.
func NewRemoteCluster(conn net.Conn) *RemoteCluster {
	return &RemoteCluster{c: rpc.NewClient(conn)}
}

// Close releases the connection.
func (r *RemoteCluster) Close() error { return r.c.Close() }

func (r *RemoteCluster) call(ctx context.Context, req request) (response, error) {
	payload, err := core.EncodeValue(req)
	if err != nil {
		return response{}, err
	}
	raw, err := r.c.Call(ctx, 0, payload)
	if err != nil {
		return response{}, err
	}
	var resp response
	err = core.DecodeValue(raw, &resp)
	rpc.PutBuffer(raw)
	if err != nil {
		return response{}, err
	}
	if resp.Err != "" {
		return response{}, fmt.Errorf("redissim: %s", resp.Err)
	}
	return resp, nil
}

// Get implements Store.
func (r *RemoteCluster) Get(ctx context.Context, key string) (string, bool, error) {
	resp, err := r.call(ctx, request{Op: "get", Key: key})
	if err != nil {
		return "", false, err
	}
	return resp.Str, resp.OK, nil
}

// Set implements Store.
func (r *RemoteCluster) Set(ctx context.Context, key, value string) error {
	_, err := r.call(ctx, request{Op: "set", Key: key, Value: value})
	return err
}

// IncrBy implements Store.
func (r *RemoteCluster) IncrBy(ctx context.Context, key string, delta int64) (int64, error) {
	resp, err := r.call(ctx, request{Op: "incrby", Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	return resp.I, nil
}

// Eval implements Store. The script must be registered on the served
// cluster.
func (r *RemoteCluster) Eval(ctx context.Context, name string, keys []string, args ...any) (any, error) {
	resp, err := r.call(ctx, request{Op: "eval", Name: name, Keys: keys, Args: args})
	if err != nil {
		return nil, err
	}
	return resp.Any, nil
}
