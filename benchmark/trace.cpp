#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace namecoh::bm {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Spans::open(const char* name, std::uint64_t parent,
                          std::uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, wall_ns(), -1, parent, request});
  return spans_.size();
}

void Spans::close(std::uint64_t id) {
  if (id == 0) return;
  spans_.at(id - 1).end_ns = wall_ns();
}

std::uint64_t Spans::add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint64_t parent,
                         std::uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return spans_.size();
}

void Spans::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // One row per sampled lookup: lookups interleave on the simulator, so
    // their spans overlap and would not nest on a shared row.
    const std::uint64_t tid = s.request == 0 ? 0 : s.request;
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace namecoh::bm
