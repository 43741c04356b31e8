#include "analysis.hpp"

namespace commitbench {

CommitAnalysis analyze_commits(const CommitInput& in) {
  CommitAnalysis out;
  const auto& epochs = *in.epochs;
  const auto& due = *in.due_s;
  const auto& sent = *in.sent_ns;
  const auto due_ns = [&](std::size_t k) {
    return in.t0_ns + static_cast<std::int64_t>(due[k] * 1e9);
  };

  std::uint64_t ids_total = 0;
  std::uint64_t rpcs_total = 0;
  std::vector<bool> seen(sent.size(), false);
  std::unordered_map<sc::core::ElementId, std::uint64_t> other_epoch;
  for (const auto& oe : epochs) {
    if (oe.adopted_ns <= in.t_end_ns) ++out.epochs_in_window;
    const bool committed = oe.committed_ns >= 0;
    if (committed) {
      ++out.committed_epochs;
      ids_total += oe.ids.size();
      rpcs_total += oe.proof_rpcs;
      if (oe.signers.size() < in.f + 1) {
        out.failures.push_back("epoch " + std::to_string(oe.number) +
                               " committed with fewer than f+1 signers");
      }
    }
    for (const auto id : oe.ids) {
      const auto it = in.index->find(id);
      if (it == in.index->end()) {
        if (!other_epoch.emplace(id, oe.number).second) {
          out.failures.push_back("id " + std::to_string(id) + " in two epochs");
        } else if (in.is_artifact && in.is_artifact(id)) {
          ++out.artifacts;
        } else {
          out.failures.push_back("id " + std::to_string(id) + " in epoch " +
                                 std::to_string(oe.number) + " was never offered");
        }
        continue;
      }
      const std::size_t k = it->second;
      if (seen[k]) {
        out.failures.push_back("id " + std::to_string(id) + " in two epochs");
        continue;
      }
      seen[k] = true;
      if (k >= due.size() || sent[k] < 0) {
        out.failures.push_back("id " + std::to_string(id) + " in epoch " +
                               std::to_string(oe.number) + " was never sent");
        continue;
      }
      if (!committed) continue;
      out.epoch_of.emplace(id, oe.number);
      ++out.committed_sent;
      const std::int64_t d = due_ns(k);
      if (d < in.measure_from_ns) continue;
      if (oe.committed_ns <= in.t_end_ns) ++out.committed_in_window;
      out.commit_ms.add(static_cast<double>(oe.committed_ns - d) * 1e-6);
      out.to_epoch_ms.add(static_cast<double>(oe.adopted_ns - d) * 1e-6);
      out.to_commit_ms.add(static_cast<double>(oe.committed_ns - oe.adopted_ns) * 1e-6);
    }
  }
  for (std::size_t k = 0; k < sent.size() && k < due.size(); ++k) {
    if (sent[k] < 0) continue;
    ++out.sent;
    out.late_ms.add(static_cast<double>(sent[k] - due_ns(k)) * 1e-6);
  }
  if (out.committed_epochs > 0) {
    out.ids_per_epoch = static_cast<double>(ids_total) / out.committed_epochs;
    out.proof_rpcs_per_epoch = static_cast<double>(rpcs_total) / out.committed_epochs;
  }
  return out;
}

}  // namespace commitbench
