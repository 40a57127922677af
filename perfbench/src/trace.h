// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the harness around calls into the library's public
// API; nothing inside the library is instrumented. Each span carries a
// name, start, end, the id of the span that caused it, and numeric args.
// Recording is off by default: a disabled span costs one branch, so the
// untraced runs that produce the end-to-end timings pay nothing.
//
// Each thread appends to its own buffer (registered once under a lock), so
// recording takes no lock on the hot path. Buffers outlive their threads
// and are merged when the trace is written as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open offline.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

/// Seconds since `since`.
inline double seconds_since(bench_clock::time_point since) {
    return std::chrono::duration<double>(bench_clock::now() - since).count();
}

/// Turns recording on or off for the whole process.
void set_tracing(bool enabled);
bool tracing_enabled();

/// Records a counter sample ("ph":"C") at the current time.
void trace_counter(const std::string& name, double value);

/// RAII span. The parent is the innermost open span on this thread, or
/// `parent` when given (spans opened on worker threads name the span on
/// the spawning thread that caused them).
class span {
public:
    explicit span(std::string name, std::int64_t parent = -1);
    span(const span&) = delete;
    span& operator=(const span&) = delete;
    ~span();

    /// Attaches a numeric arg (no-op when tracing is off).
    void arg(const std::string& key, double value);
    /// The span's id (-1 when tracing is off).
    std::int64_t id() const { return id_; }

private:
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::string name_;
    double start_us_ = 0.0;
    std::vector<std::pair<std::string, double>> args_;
};

/// Records a span that has already ended (e.g. a wait measured between two
/// events on different threads).
void record_span(const std::string& name, bench_clock::time_point start,
                 bench_clock::time_point end, std::int64_t parent);

/// Id of the innermost open span on this thread (-1 when none).
std::int64_t current_span();

/// Number of spans recorded so far.
std::size_t recorded_spans();

/// Writes every recorded span and counter as Chrome trace-event JSON
/// ({"traceEvents": [...], "otherData": metadata}).
void write_chrome_trace(const std::string& path, const reduce::json_value& metadata);

}  // namespace perfbench
