package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"crucial/internal/core"
)

// HTTPHandler builds the observability endpoint served by dso-server's
// optional -http listener:
//
//	/metrics          Prometheus text-format exposition: the registry,
//	                  per-object heavy-hitter series (crucial_object_*),
//	                  Go runtime health (crucial_runtime_*) and the wire
//	                  codec counters
//	/traces           retained spans as Chrome/Perfetto trace-event JSON
//	/debug/pprof/*    the standard net/http/pprof profiles
//
// node labels the process lane in exported traces (the server's node ID).
// A nil *Telemetry serves empty documents, so the endpoint can always be
// enabled regardless of whether instrumentation is on.
func HTTPHandler(node string, t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, t.Snapshot())
		_ = WritePrometheusObjects(w, t.Objects().Snapshot())
		_ = WritePrometheusRuntime(w)
		writeCodecStats(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		dump := t.TakeDump(node)
		_ = WriteTraceEvents(w, AlignDump(dump, dump.Now, dump.Now))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeCodecStats appends the wire-codec counters to a Prometheus
// exposition. They live as process-wide atomics in internal/core (the
// codec cannot depend on telemetry), so they are exported here rather
// than through the registry. Interpretation:
//
//	crucial_codec_fast_encodes_total    messages written in the tag-based format
//	crucial_codec_fast_decodes_total    messages parsed from the tag-based format
//	crucial_codec_fallback_values_total argument/result values outside the
//	                                    built-in type set, embedded via per-value
//	                                    gob (non-zero means RegisterValue types
//	                                    are on the hot path — worth a look if
//	                                    codec throughput matters)
//	crucial_codec_stamped_decodes_total invocations carrying an at-most-once
//	                                    (clientID, seq) stamp
//	crucial_codec_unstamped_decodes_total invocations without a stamp
//	                                    (control-plane tools; their retries
//	                                    stay at-least-once)
//	crucial_codec_gob_streams_total     gob streams whose type descriptors
//	                                    were sent or compiled afresh: the
//	                                    descriptor cache's misses and the
//	                                    types it does not hold, over user
//	                                    bodies, cold-path control-plane
//	                                    messages and fallback values (no
//	                                    per-operation frame is gob)
func writeCodecStats(w io.Writer) {
	s := core.ReadCodecStats()
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"crucial_codec_fast_encodes_total", s.FastEncodes},
		{"crucial_codec_fast_decodes_total", s.FastDecodes},
		{"crucial_codec_fallback_values_total", s.FallbackValues},
		{"crucial_codec_stamped_decodes_total", s.StampedDecodes},
		{"crucial_codec_unstamped_decodes_total", s.UnstampedDecodes},
		{"crucial_codec_gob_streams_total", s.GobStreams},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.v)
	}
}
