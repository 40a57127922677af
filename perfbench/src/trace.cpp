#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

struct event {
    bool counter = false;
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t id = -1;
    std::int64_t parent = -1;
    std::vector<std::pair<std::string, double>> args;
};

struct thread_buffer {
    std::uint32_t tid = 0;
    std::vector<event> events;
};

std::atomic<bool> enabled{false};
std::atomic<std::int64_t> next_id{1};
const bench_clock::time_point epoch = bench_clock::now();

std::mutex registry_mutex;
std::vector<std::unique_ptr<thread_buffer>>& registry() {
    static std::vector<std::unique_ptr<thread_buffer>> buffers;
    return buffers;
}

thread_local thread_buffer* local_buffer = nullptr;
thread_local std::vector<std::int64_t> open_spans;

thread_buffer& buffer() {
    if (local_buffer == nullptr) {
        std::lock_guard<std::mutex> lock(registry_mutex);
        auto owned = std::make_unique<thread_buffer>();
        owned->tid = static_cast<std::uint32_t>(registry().size() + 1);
        local_buffer = owned.get();
        registry().push_back(std::move(owned));
    }
    return *local_buffer;
}

double to_us(bench_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
}

double now_us() { return to_us(bench_clock::now()); }

void append_escaped(std::string& out, const std::string& text) {
    for (const char c : text) {
        if (c == '"' || c == '\\') { out += '\\'; }
        out += c;
    }
}

void append_number(std::string& out, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += buf;
}

}  // namespace

void set_tracing(bool on) { enabled.store(on); }

bool tracing_enabled() { return enabled.load(std::memory_order_relaxed); }

void trace_counter(const std::string& name, double value) {
    if (!tracing_enabled()) { return; }
    event e;
    e.counter = true;
    e.name = name;
    e.start_us = now_us();
    e.args.emplace_back("value", value);
    buffer().events.push_back(std::move(e));
}

span::span(std::string name, std::int64_t parent) {
    if (!tracing_enabled()) { return; }
    name_ = std::move(name);
    id_ = next_id.fetch_add(1);
    parent_ = parent >= 0 ? parent : current_span();
    open_spans.push_back(id_);
    start_us_ = now_us();
}

span::~span() {
    if (id_ < 0) { return; }
    event e;
    e.end_us = now_us();
    e.name = std::move(name_);
    e.start_us = start_us_;
    e.id = id_;
    e.parent = parent_;
    e.args = std::move(args_);
    open_spans.pop_back();
    buffer().events.push_back(std::move(e));
}

void span::arg(const std::string& key, double value) {
    if (id_ < 0) { return; }
    args_.emplace_back(key, value);
}

void record_span(const std::string& name, bench_clock::time_point start,
                 bench_clock::time_point end, std::int64_t parent) {
    if (!tracing_enabled()) { return; }
    event e;
    e.name = name;
    e.start_us = to_us(start);
    e.end_us = to_us(end);
    e.id = next_id.fetch_add(1);
    e.parent = parent;
    buffer().events.push_back(std::move(e));
}

std::int64_t current_span() { return open_spans.empty() ? -1 : open_spans.back(); }

std::size_t recorded_spans() {
    std::lock_guard<std::mutex> lock(registry_mutex);
    std::size_t total = 0;
    for (const auto& b : registry()) { total += b->events.size(); }
    return total;
}

void write_chrome_trace(const std::string& path, const reduce::json_value& metadata) {
    std::lock_guard<std::mutex> lock(registry_mutex);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
    out += metadata.dump();
    out += ",\"traceEvents\":[\n";
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"perfbench\"}}";
    for (const auto& b : registry()) {
        for (const event& e : b->events) {
            out += ",\n{\"name\":\"";
            append_escaped(out, e.name);
            out += "\",\"pid\":1,\"tid\":";
            out += std::to_string(b->tid);
            out += ",\"ts\":";
            append_number(out, e.start_us);
            if (e.counter) {
                out += ",\"ph\":\"C\",\"args\":{";
            } else {
                out += ",\"ph\":\"X\",\"dur\":";
                append_number(out, e.end_us - e.start_us);
                out += ",\"args\":{\"id\":";
                out += std::to_string(e.id);
                out += ",\"parent\":";
                out += std::to_string(e.parent);
                if (!e.args.empty()) { out += ','; }
            }
            for (std::size_t i = 0; i < e.args.size(); ++i) {
                if (i > 0) { out += ','; }
                out += '"';
                append_escaped(out, e.args[i].first);
                out += "\":";
                append_number(out, e.args[i].second);
            }
            out += "}}";
        }
    }
    out += "\n]}\n";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) { throw std::runtime_error("cannot write trace file " + path); }
    file << out;
    if (!file) { throw std::runtime_error("short write to trace file " + path); }
}

}  // namespace perfbench
