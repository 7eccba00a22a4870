package rpc

import (
	"fmt"
	"net"
)

// Transport abstracts how nodes reach each other so the same cluster code
// runs over real TCP (cmd/dso-server) and over the in-process MemNetwork
// (tests, benchmarks, examples that do not want to open sockets).
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// TCP is the loopback/production transport.
type TCP struct{}

// Listen binds a TCP listener on addr.
func (TCP) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	return l, nil
}

// Dial opens a TCP connection to addr.
func (TCP) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return c, nil
}

var _ Transport = TCP{}
