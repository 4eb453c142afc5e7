#include "tracer.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace e2e::tracer {
namespace {

constexpr std::size_t kKeptSpans = 50'000;  // per thread, for the file
constexpr std::uint32_t kNoParent = 0xffffffffu;

struct NameInfo {
  std::string name;
  bool keep_durations = false;
};

struct Frame {
  NameId name;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::uint32_t kept_index;  ///< index into ThreadBuf::kept or kNoParent
};

struct KeptSpan {
  NameId name;
  std::uint32_t parent;  ///< index into the same thread's kept spans
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadBuf {
  int tid = 0;
  std::vector<Frame> stack;
  std::vector<Stat> stats;  ///< indexed by NameId
  std::vector<KeptSpan> kept;
};

// Reached through reg() so it exists before any static initializer
// interns a name, and is never destroyed. Names are interned on the
// control thread before pool threads record, so begin()/end() read
// `names` without the lock.
struct Registry {
  std::mutex mutex;  // guards growth of names and threads
  std::vector<NameInfo> names;
  std::vector<std::unique_ptr<ThreadBuf>> threads;
};
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<bool> g_enabled{false};
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& local() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(reg().mutex);
    reg().threads.push_back(std::make_unique<ThreadBuf>());
    t_buf = reg().threads.back().get();
    // Reserved up front so recording never moves the heap mid-pass
    // (passes measure heap bytes per rule and per switch).
    t_buf->kept.reserve(kKeptSpans);
    t_buf->stack.reserve(64);
    t_buf->tid = static_cast<int>(reg().threads.size());
  }
  return *t_buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

NameId intern(const char* name, bool keep_durations) {
  std::lock_guard<std::mutex> lock(reg().mutex);
  for (std::size_t i = 0; i < reg().names.size(); ++i)
    if (reg().names[i].name == name) {
      reg().names[i].keep_durations |= keep_durations;
      return static_cast<NameId>(i);
    }
  reg().names.push_back({name, keep_durations});
  return static_cast<NameId>(reg().names.size() - 1);
}

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void begin(NameId name) {
  ThreadBuf& buf = local();
  std::uint32_t kept_index = kNoParent;
  if (buf.kept.size() < kKeptSpans) {
    std::uint32_t parent =
        buf.stack.empty() ? kNoParent : buf.stack.back().kept_index;
    kept_index = static_cast<std::uint32_t>(buf.kept.size());
    buf.kept.push_back({name, parent, 0, 0});
  }
  buf.stack.push_back({name, now_ns(), 0, kept_index});
}

void end() {
  std::int64_t t = now_ns();
  ThreadBuf& buf = local();
  Frame f = buf.stack.back();
  buf.stack.pop_back();
  std::int64_t dur = t - f.start_ns;
  if (buf.stats.size() <= f.name) buf.stats.resize(f.name + 1);
  Stat& s = buf.stats[f.name];
  ++s.calls;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;
  if (reg().names[f.name].keep_durations) s.durations_ns.push_back(dur);
  if (!buf.stack.empty()) buf.stack.back().child_ns += dur;
  if (f.kept_index != kNoParent) {
    buf.kept[f.kept_index].start_ns = f.start_ns;
    buf.kept[f.kept_index].end_ns = t;
  }
}

std::map<std::string, Stat> collect() {
  std::lock_guard<std::mutex> lock(reg().mutex);
  std::map<std::string, Stat> out;
  for (auto& buf : reg().threads) {
    for (std::size_t id = 0; id < buf->stats.size(); ++id) {
      Stat& s = buf->stats[id];
      if (s.calls == 0) continue;
      Stat& m = out[reg().names[id].name];
      m.calls += s.calls;
      m.total_ns += s.total_ns;
      m.self_ns += s.self_ns;
      m.durations_ns.insert(m.durations_ns.end(), s.durations_ns.begin(),
                            s.durations_ns.end());
      s = Stat{};
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(reg().mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = -1;
  for (const auto& buf : reg().threads)
    for (const KeptSpan& s : buf->kept)
      if (s.end_ns != 0 && (origin < 0 || s.start_ns < origin))
        origin = s.start_ns;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::string name;
  for (const auto& buf : reg().threads) {
    for (std::size_t i = 0; i < buf->kept.size(); ++i) {
      const KeptSpan& s = buf->kept[i];
      if (s.end_ns == 0) continue;  // still open
      name.clear();
      json_escape_into(name, reg().names[s.name].name);
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}",
                   first ? "" : ",", name.c_str(), buf->tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent == kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e::tracer
