#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace commitbench {

double Samples::percentile(double q) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest sample with at least ceil(q * n) samples <= it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * v_.size()));
  return v_[rank == 0 ? 0 : rank - 1];
}

double supported_tail_quantile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (const double q : kLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank >= 1 && n - rank >= min_beyond) return q;
  }
  return 0.0;
}

Outcome classify(std::uint64_t offered, std::uint64_t shed, std::uint64_t sent,
                 std::uint64_t acked, std::uint64_t accepted,
                 std::uint64_t committed_sent) {
  Outcome o;
  o.offered = offered;
  o.committed = std::min(committed_sent, offered);
  o.shed = std::min(shed, offered);
  sent = std::min(sent, offered - o.shed);
  o.pending_end = offered - o.shed - sent;
  acked = std::min(acked, sent);
  accepted = std::min(accepted, acked);
  o.unacked = sent - acked;
  o.refused = acked - accepted;
  // A refused or unacked element may still commit (another node had it):
  // charge each committed element against accepted first, then against the
  // refused/unacked buckets, so no element is counted twice.
  std::uint64_t left = o.committed;
  const std::uint64_t from_accepted = std::min(left, accepted);
  left -= from_accepted;
  o.uncommitted = accepted - from_accepted;
  const std::uint64_t from_refused = std::min(left, o.refused);
  o.refused -= from_refused;
  left -= from_refused;
  const std::uint64_t from_unacked = std::min(left, o.unacked);
  o.unacked -= from_unacked;
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace commitbench
