package core

import "testing"

// benchInvocation is a representative hot-path message: a KVMap write
// with a short string key and a float payload, as issued by the paper's
// k-means and logistic-regression workloads.
func benchInvocation() Invocation {
	return Invocation{
		Ref:    Ref{Type: "KVMap", Key: "weights/worker-3"},
		Method: "Put",
		Args:   []any{"gradient", []float64{0.25, -1.5, 3.125, 0.0625, 42, -7.5, 1e-3, 2.25}},
		Trace:  TraceContext{TraceID: 0xABCDEF0123456789, SpanID: 7},
	}
}

func benchResponse() Response {
	return Response{Results: []any{[]float64{0.25, -1.5, 3.125, 0.0625, 42, -7.5, 1e-3, 2.25}}}
}

// BenchmarkEncodeInvocationFast and its siblings are the codec
// microbenchmarks (`go test -run '^$' -bench . -benchmem ./internal/core/`);
// alloc_budget_test.go turns their allocs/op column into a gate.
func BenchmarkEncodeInvocationFast(b *testing.B) {
	inv := benchInvocation()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := AppendInvocation(buf[:0], inv)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

func BenchmarkDecodeInvocationFast(b *testing.B) {
	data, err := EncodeInvocation(benchInvocation())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInvocation(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvocationRoundTripFast measures the full encode+decode cycle a
// single RPC pays on each side of the wire.
func BenchmarkInvocationRoundTripFast(b *testing.B) {
	inv := benchInvocation()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := AppendInvocation(buf[:0], inv)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeInvocation(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResponseRoundTripFast(b *testing.B) {
	resp := benchResponse()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := AppendResponse(buf[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeResponse(data); err != nil {
			b.Fatal(err)
		}
	}
}
