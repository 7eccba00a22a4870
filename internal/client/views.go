package client

import (
	"context"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/rpc"
	"crucial/internal/server"
)

// RemoteViews is a ViewSource for clients outside the cluster process —
// deployments where the client cannot hold a live membership.Directory
// and would otherwise route from a static member list. A static view
// breaks the moment the rebalancer installs a placement directive: the
// client keeps hashing a pinned key to its old primary, which bounces
// every attempt with ErrWrongNode, and the retry loop's refreshView can
// never learn better. RemoteViews closes that loop by asking the cluster
// itself: it seeds from the static list, then re-fetches the installed
// view — members, addresses, and the directive table — over KindView
// whenever the client refreshes.
//
// View never fails: if every member is unreachable it returns the last
// known view (initially the seed), which is exactly the static behavior.
// Fetches are rate-limited (MinRefresh) so a retry storm collapses into
// one RPC, and view IDs only move forward — a lagging member cannot roll
// the client back to placement it already moved past.
type RemoteViews struct {
	// Transport must match the cluster's transport (rpc.TCP{} for real
	// deployments). FetchTimeout bounds one KindView round trip (default
	// 2s); MinRefresh is the minimum interval between fetches (default
	// 100ms, short enough that the client's default retry cycle crosses
	// at least one real refresh) — View calls inside it serve the cached
	// view.
	Transport    rpc.Transport
	FetchTimeout time.Duration
	MinRefresh   time.Duration

	mu   sync.Mutex
	view membership.View
	next int // round-robin cursor over the seed addresses
	last time.Time
}

// NewRemoteViews builds a RemoteViews seeded with view (typically built
// from a -members flag: ID 0, no directives). The seed's address table
// is the contact list for fetches.
func NewRemoteViews(tr rpc.Transport, seed membership.View) *RemoteViews {
	return &RemoteViews{Transport: tr, view: seed}
}

// View implements ViewSource: the cached view, refreshed from the
// cluster when the rate limit allows.
func (rv *RemoteViews) View() membership.View {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	minRefresh := rv.MinRefresh
	if minRefresh <= 0 {
		minRefresh = 100 * time.Millisecond
	}
	if time.Since(rv.last) < minRefresh {
		return rv.view
	}
	rv.last = time.Now()

	timeout := rv.FetchTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	// Contact members round-robin starting after the last responsive one,
	// so one dead seed doesn't tax every refresh with a dial timeout.
	members := rv.view.Members
	for i := 0; i < len(members); i++ {
		idx := (rv.next + i) % len(members)
		addr, ok := rv.view.Addrs[members[idx]]
		if !ok {
			continue
		}
		v, err := fetchView(rv.Transport, addr, timeout)
		if err != nil {
			continue
		}
		rv.next = idx
		if v.ID >= rv.view.ID {
			rv.view = v
		}
		break
	}
	return rv.view
}

// fetchView performs one KindView round trip against a node.
func fetchView(tr rpc.Transport, addr string, timeout time.Duration) (membership.View, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return membership.View{}, err
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	raw, err := rc.Call(ctx, server.KindView, nil)
	if err != nil {
		return membership.View{}, err
	}
	var v membership.View
	err = core.DecodeValue(raw, &v)
	rpc.PutBuffer(raw)
	if err != nil {
		return membership.View{}, err
	}
	return v, nil
}
