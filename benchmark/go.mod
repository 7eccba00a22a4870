// The benchmark is a module of its own so that it builds from its own
// directory (go run -C benchmark .) and stays out of the program's
// `go build ./...` and `go test ./...`. Its module path sits under the
// program's, which is what lets it import crucial/internal/...
module crucial/benchmark

go 1.24

require crucial v0.0.0

replace crucial => ../
