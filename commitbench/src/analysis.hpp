#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/element.hpp"
#include "observer.hpp"
#include "stats.hpp"

namespace commitbench {

/// What the offered elements went through, from the observer's epochs and
/// the generator's schedule. Times are steady-clock nanoseconds.
struct CommitInput {
  const std::vector<ObservedEpoch>* epochs = nullptr;
  /// id -> pool index (pool index k = arrival k).
  const std::unordered_map<sc::core::ElementId, std::uint32_t>* index = nullptr;
  const std::vector<double>* due_s = nullptr;  ///< arrival offsets, seconds
  const std::vector<std::int64_t>* sent_ns = nullptr;  ///< -1 = never sent
  std::int64_t t0_ns = 0;     ///< phase start: arrival k was due at t0 + due_s[k]
  std::int64_t t_end_ns = 0;  ///< end of the load window
  /// Start of the measured part of the window: elements due earlier are
  /// warm-up, checked like the rest but charged no latency.
  std::int64_t measure_from_ns = 0;
  std::uint32_t f = 1;
  /// Ids the benchmark itself did not offer but legitimately expects on
  /// the ledger (rollup commitments and fraud proofs).
  std::function<bool(sc::core::ElementId)> is_artifact;
};

struct CommitAnalysis {
  Samples commit_ms;    ///< due -> f+1 valid epoch-proofs observed
  Samples to_epoch_ms;  ///< due -> epoch adopted by the observer
  Samples to_commit_ms; ///< epoch adopted -> f+1 proofs
  Samples late_ms;      ///< due -> handed to a socket (generator lateness)
  std::uint64_t sent = 0;
  std::uint64_t committed_sent = 0;       ///< sent elements seen committed
  /// ... due in the measured part, with the commit inside the window
  std::uint64_t committed_in_window = 0;
  std::uint64_t artifacts = 0;
  std::uint64_t committed_epochs = 0;
  std::uint64_t epochs_in_window = 0;     ///< adopted inside the window
  double ids_per_epoch = 0;
  double proof_rpcs_per_epoch = 0;
  /// Element -> epoch it was adopted in, for committed epochs.
  std::unordered_map<sc::core::ElementId, std::uint64_t> epoch_of;
  /// Correctness failures found, one line each.
  std::vector<std::string> failures;
};

/// Charge every sent element its latencies and check the ledger's content:
/// no id in two epochs, no committed id the benchmark never offered (other
/// than artifacts), f+1 distinct signers behind every commit.
CommitAnalysis analyze_commits(const CommitInput& in);

}  // namespace commitbench
