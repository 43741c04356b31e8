#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace commitbench {

/// Exact order statistics over a stored sample (the benchmark keeps every
/// sample; runs are short enough that no histogram is needed).
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double percentile(double q) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// The highest percentile of a fixed ladder (p50, p90, p99, p99.9, p99.99)
/// that has at least `min_beyond` samples strictly beyond its rank, so a
/// reported tail always rests on enough samples. Returns 0 when even the
/// median is unsupported (fewer than 2 * min_beyond samples).
double supported_tail_quantile(std::size_t n, std::size_t min_beyond = 10);

/// Where every offered element ended up. Each offered element lands in
/// exactly one bucket, so offered == committed + failed() always holds;
/// holds() re-checks it against an independently counted `offered`.
struct Outcome {
  std::uint64_t offered = 0;
  std::uint64_t committed = 0;     ///< f+1 epoch-proofs observed by settle end
  std::uint64_t shed = 0;          ///< dropped by the generator (full queue)
  std::uint64_t pending_end = 0;   ///< still queued unsent at phase end
  std::uint64_t unacked = 0;       ///< sent, never acked
  std::uint64_t refused = 0;       ///< acked with accepted == false
  std::uint64_t uncommitted = 0;   ///< accepted but never committed

  std::uint64_t failed() const {
    return shed + pending_end + unacked + refused + uncommitted;
  }
  double failed_frac() const {
    return offered == 0 ? 0.0 : static_cast<double>(failed()) / offered;
  }
  bool holds() const { return offered == committed + failed(); }
};

/// Classify the offered elements. `sent` and `acked` / `accepted` come from
/// the generator, `committed_sent` counts sent elements the observer saw
/// commit; the unsent remainder is split into shed and pending_end as the
/// generator reported them. Never under-counts: whatever the generator
/// could not account for is charged as pending_end.
Outcome classify(std::uint64_t offered, std::uint64_t shed, std::uint64_t sent,
                 std::uint64_t acked, std::uint64_t accepted,
                 std::uint64_t committed_sent);

/// Fixed-precision-free JSON number ("with all its digits").
std::string json_number(double v);

}  // namespace commitbench
