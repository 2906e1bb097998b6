// Spans recorded by the benchmark around its own calls into each layer
// (the program's in-process Tracer stays off). Held in memory and written
// once, at exit, as a chrome-trace JSON file (chrome://tracing, Perfetto).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace namecoh::bm {

/// Wall-clock nanoseconds on the steady clock.
[[nodiscard]] std::int64_t wall_ns();

class Spans {
 public:
  /// A disabled recorder hands out id 0 and records nothing.
  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span now; `parent` 0 = root, `request` ties the spans of one
  /// lookup together. Returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t parent = 0,
                     std::uint64_t request = 0);
  void close(std::uint64_t id);
  /// A span with explicit bounds.
  std::uint64_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t request = 0);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Write every closed span as chrome-trace "X" events.
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;  ///< -1 while open
    std::uint64_t parent;
    std::uint64_t request;
  };

  bool enabled_;
  std::vector<Span> spans_;  ///< id = index + 1
};

}  // namespace namecoh::bm
