#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace commitbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer: name, interval, and the span that caused it
/// (0 = a root). `key` ties spans of one unit of work together (an epoch
/// number for proof checks, 0 when there is none).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t key = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// In-memory span store. Disabled tracers record nothing (the untraced run
/// pays one branch per call site). Spans are kept until write_json() at
/// exit; the per-layer metrics are computed from them.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; nests through a per-thread parent stack.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t key = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Span s_;
    std::uint32_t saved_parent_ = 0;
  };

  /// Spans named `name`, in recording order (copy; call after the run).
  std::vector<Span> spans(const std::string& name) const;
  std::size_t size() const;
  /// Write every span as one JSON array; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  void record(const Span& s);

  bool enabled_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
  std::uint32_t next_id_ = 1;  // guarded by m_
};

}  // namespace commitbench
