package rpc

import (
	"context"
	"testing"
)

// benchEcho returns its request payload, the cheapest possible handler, so
// the numbers isolate framing, buffering, and scheduling overhead.
func benchEcho(_ context.Context, _ uint8, payload []byte) ([]byte, error) {
	return payload, nil
}

func benchClient(b *testing.B) *Client {
	b.Helper()
	tr := NewMemNetwork()
	l, err := tr.Listen("bench")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(benchEcho)
	go func() { _ = srv.Serve(l) }()
	b.Cleanup(func() { _ = srv.Close() })
	conn, err := tr.Dial("bench")
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(conn)
	b.Cleanup(func() { _ = c.Close() })
	return c
}

// BenchmarkRPCEchoSequential measures one in-flight call at a time over
// the in-memory transport: the floor for a single uncontended RPC.
func BenchmarkRPCEchoSequential(b *testing.B) {
	c := benchClient(b)
	payload := make([]byte, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := c.Call(ctx, 1, payload)
		if err != nil {
			b.Fatal(err)
		}
		PutBuffer(raw)
	}
}

// BenchmarkRPCEchoParallel multiplexes many in-flight calls on one
// connection; concurrent writers batch into single conn.Write calls.
func BenchmarkRPCEchoParallel(b *testing.B) {
	c := benchClient(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		payload := make([]byte, 64)
		for pb.Next() {
			raw, err := c.Call(ctx, 1, payload)
			if err != nil {
				b.Fatal(err)
			}
			PutBuffer(raw)
		}
	})
}
