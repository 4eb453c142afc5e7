// Span recorder for the traced run. The benchmark wraps each call it
// makes into a layer's public functions in a Span; nothing inside src/
// is instrumented.
//
// Every span has a name, start, end and the span that was open on the
// same thread when it started (its parent). Self time is a span's
// duration minus the time its children cover, accumulated online from a
// per-thread span stack, so it is exact for every span even though only
// the first kKeptSpans spans per thread are kept for the trace file.
//
// Disabled (the untraced run) a Span is one branch on a global flag.
// enable()/collect() run on the control thread while no other thread is
// recording; spans on pool threads (the fleet's shard workers) go to
// that thread's own buffer, merged by collect().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e::tracer {

using NameId = std::uint32_t;

/// Registers a span name; `keep_durations` keeps every call's duration
/// so collect() can report percentiles.
NameId intern(const char* name, bool keep_durations = false);

void enable(bool on);
bool enabled();

void begin(NameId name);
void end();

/// RAII span; a no-op while tracing is disabled.
class Span {
 public:
  explicit Span(NameId name) : active_(enabled()) {
    if (active_) begin(name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct Stat {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<std::int64_t> durations_ns;  ///< only for keep_durations
};

/// Merges every thread's totals since the last collect() and resets
/// them. Call only while no other thread records spans.
std::map<std::string, Stat> collect();

/// Writes the kept spans as Chrome trace-event JSON (viewable in
/// Perfetto or chrome://tracing). Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path);

}  // namespace e2e::tracer
