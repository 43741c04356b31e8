// Seeded scenario fuzzing over the fault-injection layer: every 64-bit seed
// expands (core::testing::make_fuzz_case) into algorithm × cluster size ×
// rate × fault plan, runs the full Experiment, and must uphold
//
//   * the Setchain property set P1-P8 (safety always; the complete liveness
//     set whenever every fault heals inside the add window),
//   * quorum-read agreement: a QuorumClient over all n nodes reconstructs
//     exactly the correct servers' consolidated view,
//   * exact replay determinism: the same seed yields byte-identical epoch
//     hash chains, consolidated sets, and event counts on a second run.
//
// A failing seed is its own reproducer:
//   SETCHAIN_FUZZ_ONE=<seed> ./scenario_fuzz_test --gtest_filter='*OneSeed*'
//
// The pinned corpus below keeps known-interesting seeds green forever, with
// at least one seed per fault kind whose fault path demonstrably fired
// (asserted through the fault-layer counters, not just the plan).
#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_set>

#include "core/algo_fixture.hpp"
#include "core/invariants.hpp"
#include "runner/experiment.hpp"

namespace setchain {
namespace {

using core::testing::FuzzCase;
using core::testing::make_fuzz_case;

struct FuzzOutcome {
  std::vector<core::EpochHash> epoch_hashes;  ///< reference server's chain
  std::unordered_set<core::ElementId> consolidated;
  std::uint64_t added = 0;
  std::uint64_t committed = 0;
  std::uint64_t events = 0;
  sim::FaultStats net_stats;
  std::uint64_t crashes = 0;
};

/// Nodes that never come back: their final state is a stale (or wiped)
/// snapshot, so the liveness/agreement assertions skip them. Safety still
/// covers them — a frozen prefix must stay consistent.
std::vector<bool> never_restarts(const FuzzCase& fc) {
  std::vector<bool> out(fc.scenario.n, false);
  for (const auto& flt : fc.scenario.faults.faults) {
    if (flt.kind == sim::FaultKind::kCrash && !flt.heals()) out[flt.from] = true;
  }
  return out;
}

/// Run one expanded case, assert the property set, and digest the outcome.
void run_once(const FuzzCase& fc, FuzzOutcome& out) {
  runner::Experiment e(fc.scenario);
  e.run();
  const std::uint32_t n = fc.scenario.n;
  const auto gone = never_restarts(fc);

  std::vector<const core::SetchainServer*> all;
  std::vector<const core::SetchainServer*> recovered;  // every server that ends up
  for (std::uint32_t i = 0; i < n; ++i) {              // with full guarantees
    all.push_back(&e.server(i));
    if (!gone[i]) recovered.push_back(&e.server(i));
  }

  // Safety (P1 Consistent-Sets, P5 Unique-Epoch, P6 Consistent-Gets) holds
  // on every server, dead ones included: a crash may freeze a prefix but can
  // never fork it.
  const auto safety = core::check_safety(all);
  EXPECT_TRUE(safety.ok()) << fc.summary << "\n" << safety.to_string();

  // P7 Add-before-Get: nothing materializes out of thin air, ever.
  const auto p7 = core::check_add_before_get(all, e.created_ids());
  EXPECT_TRUE(p7.ok()) << fc.summary << "\n" << p7.to_string();

  if (fc.check_liveness) {
    // Every fault healed in-band: the run must have fully recovered, healed
    // crash victims included (ledger replay / catch-up rebuilt them).
    const auto live = core::check_liveness_quiescent(recovered, e.accepted_valid_ids(),
                                                     e.params(), e.pki());
    EXPECT_TRUE(live.ok()) << fc.summary << "\n" << live.to_string();
    EXPECT_EQ(e.result().elements_committed, e.result().elements_added) << fc.summary;
  }

  // Quorum-read agreement: a client over all n nodes adopts exactly the
  // consolidated view of the correct servers (their union — at quiescence a
  // correct server with the longest history).
  const core::SetchainServer* ref = nullptr;
  for (const auto* s : recovered) {
    if (ref == nullptr || s->epoch() > ref->epoch()) ref = s;
  }
  ASSERT_NE(ref, nullptr) << fc.summary;
  const auto ref_snap = ref->get();
  auto client = e.make_client();
  const auto view = client.get();
  ASSERT_LE(view.epoch, ref_snap.history->size()) << fc.summary;
  for (std::size_t i = 0; i < view.history.size(); ++i) {
    EXPECT_EQ(view.history[i].hash, (*ref_snap.history)[i].hash) << fc.summary;
    EXPECT_EQ(view.history[i].ids, (*ref_snap.history)[i].ids) << fc.summary;
  }
  if (fc.check_liveness) {
    EXPECT_EQ(view.epoch, ref_snap.history->size()) << fc.summary;
    for (const auto id : e.accepted_valid_ids()) {
      EXPECT_TRUE(view.contains(id)) << fc.summary << " element " << id;
    }
  }

  // Digest for the replay-determinism comparison.
  out.epoch_hashes.clear();
  out.consolidated.clear();
  for (const auto& rec : *ref_snap.history) {
    out.epoch_hashes.push_back(rec.hash);
    out.consolidated.insert(rec.ids.begin(), rec.ids.end());
  }
  const auto r = e.result();
  out.added = r.elements_added;
  out.committed = r.elements_committed;
  out.events = r.events;
  if (const auto* inj = e.fault_injector()) out.net_stats = inj->stats();
  out.crashes = 0;
  for (std::uint32_t i = 0; i < n; ++i) out.crashes += e.server(i).crash_count();
}

/// Run the case twice and assert byte-exact replay.
void run_twice_and_compare(const FuzzCase& fc, FuzzOutcome& first) {
  run_once(fc, first);
  FuzzOutcome second;
  run_once(fc, second);
  EXPECT_EQ(first.epoch_hashes, second.epoch_hashes) << fc.summary;
  EXPECT_EQ(first.consolidated, second.consolidated) << fc.summary;
  EXPECT_EQ(first.added, second.added) << fc.summary;
  EXPECT_EQ(first.committed, second.committed) << fc.summary;
  EXPECT_EQ(first.events, second.events) << fc.summary;
  EXPECT_EQ(first.crashes, second.crashes) << fc.summary;
  EXPECT_EQ(first.net_stats.total_dropped(), second.net_stats.total_dropped())
      << fc.summary;
}

// --------------------------------------------------------------- pinned corpus

struct CorpusEntry {
  std::uint64_t seed;
  // Which fault paths this seed must demonstrably exercise (fault-layer
  // counters, not plan contents).
  bool drops = false;
  bool partitions = false;
  bool delays = false;
  bool crashes = false;
};

// Seeds picked by sweeping make_fuzz_case: together they cover every fault
// kind (counter-asserted), healed and unhealed plans, wiped and retained
// crashes, and all three algorithms.
//   seed 6   Hashchain n=4: blanket message loss
//   seed 8   Hashchain n=7: crash with NO restart (safety-only seed)
//   seed 12  Vanilla n=4: delay spike
//   seed 16  Vanilla n=4: delay spike + crash with wiped state (ledger replay)
//   seed 21  Hashchain n=4: crash/restart, state retained
//   seed 28  Vanilla n=5: two overlapping partitions
//   seed 31  Compresschain n=4: drop + delay + crash at once
//   seed 37  Vanilla n=7: partition + heavy link loss
constexpr CorpusEntry kCorpus[] = {
    {6, /*drops=*/true, /*partitions=*/false, /*delays=*/false, /*crashes=*/false},
    {8, /*drops=*/false, /*partitions=*/false, /*delays=*/false, /*crashes=*/true},
    {12, /*drops=*/false, /*partitions=*/false, /*delays=*/true, /*crashes=*/false},
    {16, /*drops=*/false, /*partitions=*/false, /*delays=*/true, /*crashes=*/true},
    {21, /*drops=*/false, /*partitions=*/false, /*delays=*/false, /*crashes=*/true},
    {28, /*drops=*/false, /*partitions=*/true, /*delays=*/false, /*crashes=*/false},
    {31, /*drops=*/true, /*partitions=*/false, /*delays=*/true, /*crashes=*/true},
    {37, /*drops=*/true, /*partitions=*/true, /*delays=*/false, /*crashes=*/false},
};

TEST(ScenarioFuzzCorpus, PinnedSeedsUpholdPropertiesAndExerciseEveryFaultKind) {
  bool covered_drop = false, covered_partition = false, covered_delay = false,
       covered_crash = false;
  bool covered_wipe = false;
  for (const auto& entry : kCorpus) {
    const FuzzCase fc = make_fuzz_case(entry.seed);
    SCOPED_TRACE(fc.summary);
    FuzzOutcome out;
    run_twice_and_compare(fc, out);
    covered_wipe = covered_wipe || fc.has_wipe;
    if (entry.drops) {
      // An expected counter implies the plan contains the kind at all...
      EXPECT_TRUE(fc.has_kind[static_cast<int>(sim::FaultKind::kDrop)]);
      // ... and the run must prove the fault path actually fired.
      EXPECT_GT(out.net_stats.dropped_random, 0u) << fc.summary;
      covered_drop = true;
    }
    if (entry.partitions) {
      EXPECT_TRUE(fc.has_kind[static_cast<int>(sim::FaultKind::kPartition)]);
      EXPECT_GT(out.net_stats.dropped_partition, 0u) << fc.summary;
      covered_partition = true;
    }
    if (entry.delays) {
      EXPECT_TRUE(fc.has_kind[static_cast<int>(sim::FaultKind::kDelaySpike)]);
      EXPECT_GT(out.net_stats.delayed, 0u) << fc.summary;
      covered_delay = true;
    }
    if (entry.crashes) {
      EXPECT_TRUE(fc.has_kind[static_cast<int>(sim::FaultKind::kCrash)]);
      EXPECT_GT(out.crashes, 0u) << fc.summary;
      EXPECT_GT(out.net_stats.dropped_crash, 0u) << fc.summary;
      covered_crash = true;
    }
  }
  // The corpus contract: at least one seed per fault kind, and at least one
  // crash that wipes state (the ledger-replay recovery path).
  EXPECT_TRUE(covered_drop);
  EXPECT_TRUE(covered_partition);
  EXPECT_TRUE(covered_delay);
  EXPECT_TRUE(covered_crash);
  EXPECT_TRUE(covered_wipe);
}

// P9 under faults: the three algorithms implement one abstract datatype, so
// the same fuzz case driven through each must consolidate the same element
// set with content-pure epoch hashes. (Client add schedules and fault
// windows are identical across algorithms by construction.)
TEST(ScenarioFuzzCorpus, CrossAlgorithmConformanceUnderFaults) {
  // seed 7: wiped crash + link loss + delay spike; seed 19: partition + delay.
  for (const std::uint64_t seed : {7ull, 19ull}) {
    FuzzCase fc = make_fuzz_case(seed);
    ASSERT_TRUE(fc.check_liveness) << "pick healed corpus seeds for P9";
    std::vector<std::vector<core::EpochRecord>> histories;
    for (const auto algo :
         {runner::Algorithm::kVanilla, runner::Algorithm::kCompresschain,
          runner::Algorithm::kHashchain}) {
      fc.scenario.algorithm = algo;
      runner::Experiment e(fc.scenario);
      e.run();
      EXPECT_EQ(e.result().elements_committed, e.result().elements_added)
          << fc.summary << " " << runner::algorithm_name(algo);
      histories.push_back(*e.server(0).get().history);
    }
    std::vector<core::AlgoRun> runs;
    runs.push_back({"Vanilla", &histories[0]});
    runs.push_back({"Compresschain", &histories[1]});
    runs.push_back({"Hashchain", &histories[2]});
    const auto p9 = core::check_cross_algorithm(runs);
    EXPECT_TRUE(p9.ok()) << fc.summary << "\n" << p9.to_string();
  }
}

// -------------------------------------------------------- fresh random seeds

TEST(ScenarioFuzz, RandomSeeds) {
  const char* count_env = std::getenv("SETCHAIN_FUZZ_SEEDS");
  const char* base_env = std::getenv("SETCHAIN_FUZZ_BASE");
  const int count = count_env ? std::atoi(count_env) : 25;
  const std::uint64_t base =
      base_env ? std::strtoull(base_env, nullptr, 10) : 20260726ull;
  for (int i = 0; i < count; ++i) {
    const FuzzCase fc = make_fuzz_case(base + static_cast<std::uint64_t>(i));
    SCOPED_TRACE(fc.summary);
    FuzzOutcome out;
    run_twice_and_compare(fc, out);
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
}

// Reproduce one seed from a failure report: SETCHAIN_FUZZ_ONE=<seed>.
TEST(ScenarioFuzz, OneSeed) {
  const char* env = std::getenv("SETCHAIN_FUZZ_ONE");
  if (!env) GTEST_SKIP() << "set SETCHAIN_FUZZ_ONE=<seed> to reproduce a seed";
  const FuzzCase fc = make_fuzz_case(std::strtoull(env, nullptr, 10));
  SCOPED_TRACE(fc.summary);
  FuzzOutcome out;
  run_twice_and_compare(fc, out);
}

// ------------------------------------------ replay determinism under faults
// Same seed + same FaultPlan => byte-identical epoch hash chains across two
// runs, for all three algorithms, with every fault kind active at once.

TEST(FaultReplayDeterminism, ByteIdenticalEpochHashesAllAlgorithms) {
  for (const auto algo : {runner::Algorithm::kVanilla,
                          runner::Algorithm::kCompresschain,
                          runner::Algorithm::kHashchain}) {
    runner::Scenario s;
    s.algorithm = algo;
    s.n = 7;  // f = 2: one partitioned node plus one crashed node
    s.sending_rate = 300;
    s.collector_limit = 20;
    s.add_duration = sim::from_seconds(5);
    s.horizon = sim::from_seconds(180);
    s.track_ids = true;
    s.clients_duplicate_to_all = true;
    s.seed = 0xD5EEDULL;
    auto& faults = s.faults.faults;
    faults.push_back(sim::Fault::drop(sim::kAnyNode, sim::kAnyNode, 0.2,
                                      sim::from_seconds(1.0), sim::from_seconds(2.5)));
    faults.push_back(sim::Fault::partition({1}, sim::from_seconds(1.5),
                                           sim::from_seconds(3.0)));
    faults.push_back(sim::Fault::delay_spike(sim::from_millis(300),
                                             sim::from_seconds(0.5),
                                             sim::from_seconds(4.0)));
    faults.push_back(sim::Fault::crash(2, sim::from_seconds(2.0),
                                       sim::from_seconds(3.5), /*wipe=*/true));

    std::vector<std::vector<core::EpochHash>> chains;
    std::vector<std::uint64_t> events;
    for (int run = 0; run < 2; ++run) {
      runner::Experiment e(s);
      e.run();
      // The fault plan heals by 3.5 s: everything must still commit.
      EXPECT_EQ(e.result().elements_committed, e.result().elements_added)
          << runner::algorithm_name(algo);
      EXPECT_GT(e.result().net_dropped, 0u);
      std::vector<core::EpochHash> chain;
      for (const auto& rec : *e.server(0).get().history) chain.push_back(rec.hash);
      chains.push_back(std::move(chain));
      events.push_back(e.result().events);
    }
    ASSERT_FALSE(chains[0].empty()) << runner::algorithm_name(algo);
    EXPECT_EQ(chains[0], chains[1]) << runner::algorithm_name(algo);
    EXPECT_EQ(events[0], events[1]) << runner::algorithm_name(algo);
  }
}

}  // namespace
}  // namespace setchain
