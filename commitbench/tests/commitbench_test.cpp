// Unit tests for the commit benchmark's own pieces: tail-percentile
// selection, outcome accounting, commit analysis, CPU attribution, and a
// short live run checking the observer against QuorumClient::verify.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis.hpp"
#include "cluster.hpp"
#include "cpu.hpp"
#include "observer.hpp"
#include "pool.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace commitbench {
namespace {

TEST(Stats, NearestRankPercentile) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_EQ(s.percentile(0.50), 50);
  EXPECT_EQ(s.percentile(0.99), 99);
  EXPECT_EQ(s.percentile(1.0), 100);
  EXPECT_EQ(s.percentile(0.0), 1);
  EXPECT_EQ(Samples().percentile(0.5), 0);
}

TEST(Stats, TailQuantileNeedsTenSamplesBeyond) {
  EXPECT_EQ(supported_tail_quantile(0), 0.0);
  EXPECT_EQ(supported_tail_quantile(19), 0.0);     // median rank 10, 9 beyond
  EXPECT_EQ(supported_tail_quantile(20), 0.5);
  EXPECT_EQ(supported_tail_quantile(100), 0.9);    // p99: 1 beyond
  EXPECT_EQ(supported_tail_quantile(999), 0.9);    // p99: rank 990, 9 beyond
  EXPECT_EQ(supported_tail_quantile(1000), 0.99);  // p99: rank 990, 10 beyond
  EXPECT_EQ(supported_tail_quantile(9999), 0.99);
  EXPECT_EQ(supported_tail_quantile(10000), 0.999);
  EXPECT_EQ(supported_tail_quantile(100000), 0.9999);
  EXPECT_EQ(supported_tail_quantile(1000, 11), 0.9);
}

TEST(Stats, OfferedIsCommittedPlusFailed) {
  // offered, shed, sent, acked, accepted, committed_sent
  const std::uint64_t cases[][6] = {
      {1000, 0, 1000, 1000, 1000, 1000},  // clean run
      {1000, 0, 1000, 1000, 1000, 990},   // 10 accepted, never committed
      {1000, 5, 990, 980, 970, 965},      // every bucket populated
      {1000, 0, 1000, 1000, 900, 950},    // refused elsewhere, still committed
      {1000, 0, 1000, 900, 900, 950},     // unacked, still committed
      {0, 0, 0, 0, 0, 0},
  };
  for (const auto& c : cases) {
    const Outcome o = classify(c[0], c[1], c[2], c[3], c[4], c[5]);
    EXPECT_TRUE(o.holds()) << c[0] << " " << c[5];
    EXPECT_EQ(o.offered, o.committed + o.failed());
  }
  const Outcome o = classify(1000, 5, 990, 980, 970, 965);
  EXPECT_EQ(o.shed, 5u);
  EXPECT_EQ(o.pending_end, 5u);
  EXPECT_EQ(o.unacked, 10u);
  EXPECT_EQ(o.refused, 10u);
  EXPECT_EQ(o.uncommitted, 5u);
  EXPECT_DOUBLE_EQ(o.failed_frac(), 0.035);
  // More commits than sends cannot be accounted for: the identity breaks.
  EXPECT_FALSE(classify(10, 0, 5, 5, 5, 8).holds());
}

ObservedEpoch epoch_of(std::uint64_t n, std::vector<sc::core::ElementId> ids,
                       std::int64_t adopted_ns, std::int64_t committed_ns,
                       std::size_t signers) {
  ObservedEpoch e;
  e.number = n;
  e.ids = std::move(ids);
  e.adopted_ns = adopted_ns;
  e.committed_ns = committed_ns;
  for (std::size_t s = 0; s < signers; ++s) e.signers.insert(static_cast<sc::crypto::ProcessId>(s));
  e.proof_rpcs = 1;
  return e;
}

struct AnalysisFixture {
  std::unordered_map<sc::core::ElementId, std::uint32_t> index{{100, 0}, {101, 1}, {102, 2}};
  std::vector<double> due_s{0.0, 0.5, 1.0};
  std::vector<std::int64_t> sent_ns{1'000'000, 501'000'000, -1};
  std::vector<ObservedEpoch> epochs;
  std::int64_t measure_from_ns = 0;

  CommitAnalysis run() {
    CommitInput in;
    in.epochs = &epochs;
    in.index = &index;
    in.due_s = &due_s;
    in.sent_ns = &sent_ns;
    in.t0_ns = 0;
    in.t_end_ns = 2'000'000'000;
    in.measure_from_ns = measure_from_ns;
    in.f = 1;
    in.is_artifact = [](sc::core::ElementId id) { return id >= 900; };
    return analyze_commits(in);
  }
};

TEST(Analysis, ChargesLatencyFromDueTime) {
  AnalysisFixture fx;
  fx.epochs.push_back(epoch_of(1, {100, 900}, 300'000'000, 700'000'000, 2));
  fx.epochs.push_back(epoch_of(2, {101}, 2'100'000'000, 2'600'000'000, 3));
  const CommitAnalysis a = fx.run();
  EXPECT_TRUE(a.failures.empty());
  EXPECT_EQ(a.sent, 2u);
  EXPECT_EQ(a.committed_sent, 2u);
  EXPECT_EQ(a.committed_in_window, 1u);  // epoch 2 commits after the window
  EXPECT_EQ(a.artifacts, 1u);
  EXPECT_NEAR(a.commit_ms.percentile(0.0), 700.0, 1e-9);     // due 0 -> 700 ms
  EXPECT_NEAR(a.commit_ms.percentile(1.0), 2100.0, 1e-9);    // due 500 ms -> 2600 ms
  EXPECT_NEAR(a.to_commit_ms.percentile(0.0), 400.0, 1e-9);
  EXPECT_NEAR(a.late_ms.percentile(1.0), 1.0, 1e-9);
  EXPECT_EQ(a.epoch_of.at(101), 2u);
  EXPECT_DOUBLE_EQ(a.ids_per_epoch, 1.5);
}

TEST(Analysis, WarmupIsCheckedButChargedNoLatency) {
  AnalysisFixture fx;
  fx.measure_from_ns = 400'000'000;  // element 100 (due 0) is warm-up
  fx.epochs.push_back(epoch_of(1, {100}, 300'000'000, 700'000'000, 2));
  fx.epochs.push_back(epoch_of(2, {101, 100}, 900'000'000, 1'200'000'000, 2));
  const CommitAnalysis a = fx.run();
  ASSERT_EQ(a.failures.size(), 1u);  // a warm-up id in two epochs still fails
  EXPECT_NE(a.failures[0].find("two epochs"), std::string::npos);
  EXPECT_EQ(a.committed_sent, 2u);
  EXPECT_EQ(a.committed_in_window, 1u);
  ASSERT_EQ(a.commit_ms.size(), 1u);
  EXPECT_NEAR(a.commit_ms.percentile(0.5), 700.0, 1e-9);  // due 500 ms -> 1200 ms
}

TEST(Analysis, FlagsLedgerContentViolations) {
  AnalysisFixture fx;
  fx.epochs.push_back(epoch_of(1, {100}, 10, 20, 2));
  fx.epochs.push_back(epoch_of(2, {100, 102, 555}, 30, 40, 2));  // dup, unsent, unknown
  fx.epochs.push_back(epoch_of(3, {101}, 50, 60, 1));            // one signer only
  const CommitAnalysis a = fx.run();
  ASSERT_EQ(a.failures.size(), 4u);
  EXPECT_NE(a.failures[0].find("two epochs"), std::string::npos);
  EXPECT_NE(a.failures[1].find("never sent"), std::string::npos);
  EXPECT_NE(a.failures[2].find("never offered"), std::string::npos);
  EXPECT_NE(a.failures[3].find("fewer than f+1"), std::string::npos);
}

TEST(Cpu, ClassesSumToProcessCpu) {
  CpuAttribution cpu;
  std::atomic<bool> stop{false};
  std::atomic<pid_t> tid{0};
  std::thread spinner([&] {
    tid.store(this_thread_id());
    while (!stop.load()) {
    }
  });
  while (tid.load() == 0) std::this_thread::yield();
  cpu.assign(tid.load(), "spin");
  cpu.assign(this_thread_id(), "main");
  cpu.begin();
  const auto until = Clock::now() + std::chrono::milliseconds(300);
  volatile std::uint64_t x = 0;
  while (Clock::now() < until) x = x + 1;
  cpu.end();
  stop.store(true);
  spinner.join();
  EXPECT_GT(cpu.seconds("spin"), 0.1);
  EXPECT_GT(cpu.seconds("main"), 0.1);
  EXPECT_TRUE(cpu.check(0.05)) << cpu.attributed_seconds() << " vs " << cpu.process_seconds();
  EXPECT_LT(cpu.unattributed_frac(), 0.05);
}

TEST(Pool, SlicesStripeAndNeverCollide) {
  sc::crypto::Pki pki(7);
  for (sc::crypto::ProcessId p = 0; p < 40; ++p) pki.register_process(p);
  for (const bool rollup : {false, true}) {
    const PoolBuild b = build_pool(rollup, 250, 4, 4, 3, pki, 2, 2);
    EXPECT_GE(b.pool.elements.size(), 250u);
    EXPECT_EQ(b.pool.elements.size() % 16, 0u);
    EXPECT_EQ(b.pool.index.size(), b.pool.elements.size());
    EXPECT_EQ(b.round_s.size(), 2u);
    EXPECT_EQ(b.pool.accounts.size(), rollup ? 16u : 0u);
  }
}

// A short live run: what the observer calls committed, a separate
// QuorumClient::verify confirms, in the same epoch; what was never sent is
// in no epoch.
TEST(Live, ObserverAgreesWithQuorumVerify) {
  sc::net::NodeHostConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.algorithm = sc::runner::Algorithm::kHashchain;
  cfg.ledger_mode = sc::runner::LedgerMode::kConsensus;
  cfg.collector_limit = 64;
  cfg.collector_timeout = sc::sim::from_millis(50);
  cfg.block_interval = sc::sim::from_millis(50);
  sc::crypto::Pki pki(cfg.seed);
  for (sc::crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) pki.register_process(p);

  sc::load::ArrivalConfig ac;
  ac.rate = 400;
  ac.seed = 11;
  const auto due = arrival_schedule(ac, 2.0);
  const PoolBuild b = build_pool(false, due.size(), 4, cfg.n, 11, pki, 1, 2);

  Cluster cluster(cfg, "");
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  sc::load::FleetConfig fc;
  fc.targets = cluster.targets();
  fc.cluster = cluster.cluster_id();
  fc.sessions = 4;
  sc::load::LoadFleet fleet(fc);
  ASSERT_EQ(fleet.connect(), 4u);

  Tracer tracer(true);
  Observer::Config oc;
  oc.targets = cluster.targets();
  oc.cluster = cluster.cluster_id();
  oc.client_id = cfg.n + 1;
  Observer obs(oc, pki, tracer, [&](sc::core::ElementId id) { return b.pool.index.contains(id); });
  obs.start();
  RecordingSource source(b.pool.elements, 4);
  const std::int64_t t0 = now_ns();
  const auto phase = fleet.run_phase(source, ac, 2.0);
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  while (obs.committed_tracked() < phase.accepted && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  obs.stop();

  CommitInput in;
  in.epochs = &obs.epochs();
  in.index = &b.pool.index;
  in.due_s = &due;
  in.sent_ns = &source.sent_ns();
  in.t0_ns = t0;
  in.t_end_ns = t0 + 2'000'000'000;
  const CommitAnalysis a = analyze_commits(in);
  EXPECT_TRUE(a.failures.empty()) << a.failures.front();
  EXPECT_EQ(a.sent, phase.sent);
  EXPECT_EQ(a.committed_sent, phase.accepted);
  const Outcome o = classify(phase.offered, phase.shed, phase.sent, phase.acked,
                             phase.accepted, a.committed_sent);
  EXPECT_TRUE(o.holds());
  EXPECT_EQ(o.failed(), 0u);
  EXPECT_EQ(obs.max_masked(), 0u);
  EXPECT_FALSE(tracer.spans("api.get").empty());
  EXPECT_FALSE(tracer.spans("crypto.valid_proof").empty());

  auto nodes = connect_nodes(cluster.targets(), cluster.cluster_id(), cfg.n + 2);
  std::vector<sc::api::ISetchainNode*> ptrs;
  for (const auto& n : nodes) ptrs.push_back(n.get());
  auto qc = sc::api::make_quorum_client(std::move(ptrs), pki, 1, sc::core::Fidelity::kFull);
  std::size_t checked = 0;
  for (const auto& [id, epoch] : a.epoch_of) {
    if (++checked > 12) break;
    const auto v = qc.verify(id);
    EXPECT_TRUE(v.committed) << id;
    EXPECT_EQ(v.epoch, epoch) << id;
    EXPECT_GE(v.valid_proofs, 2u);
  }
  EXPECT_GT(checked, 0u);
  const auto& last = b.pool.elements.back();
  ASSERT_LT(source.sent_ns().back(), 0);  // pool is sized past the schedule
  EXPECT_FALSE(qc.verify(last.id).in_epoch);
  cluster.shutdown();
}

}  // namespace
}  // namespace commitbench
