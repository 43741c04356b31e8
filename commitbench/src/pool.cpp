#include "pool.hpp"

#include <algorithm>
#include <thread>

#include "core/element.hpp"
#include "trace.hpp"
#include "workload/arbitrum_like.hpp"

namespace commitbench {

std::vector<double> arrival_schedule(const sc::load::ArrivalConfig& cfg, double seconds) {
  sc::load::ArrivalProcess ap(cfg);
  std::vector<double> out;
  // Past the end: the fleet may still offer an arrival due a hair after
  // the nominal end while it finishes its last loop turn.
  for (double t = ap.next(); t < seconds + 0.25; t = ap.next()) out.push_back(t);
  return out;
}

namespace {

std::vector<sc::core::Element> kv_slice(std::size_t count, sc::crypto::ProcessId client,
                                        std::uint64_t seed, sc::crypto::Pki& pki) {
  sc::workload::ArbitrumLikeGenerator gen(seed);
  // The factory only signs through the PKI (keys are registered up front),
  // so slices can share it across threads.
  sc::core::ElementFactory factory(gen, pki, sc::core::Fidelity::kFull);
  std::vector<sc::core::Element> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(factory.make(client, i));
  return out;
}

}  // namespace

PoolBuild build_pool(bool rollup, std::size_t budget, std::uint32_t sessions,
                     sc::crypto::ProcessId first_client, std::uint64_t seed,
                     sc::crypto::Pki& pki, unsigned rounds, unsigned threads) {
  const std::size_t slices = static_cast<std::size_t>(rounds) * threads;
  // Whole stripes per slice keep pool index k on session k % sessions.
  std::size_t per_slice = (budget + slices - 1) / slices;
  per_slice = (per_slice + sessions - 1) / sessions * sessions;

  std::vector<std::vector<sc::core::Element>> kv(slices);
  std::vector<sc::workload::rollup::TxPool> tx(slices);
  PoolBuild out;
  for (unsigned r = 0; r < rounds; ++r) {
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < threads; ++w) {
      const std::size_t j = static_cast<std::size_t>(r) * threads + w;
      const std::uint64_t slice_seed = seed * 0x9E3779B97F4A7C15ULL + j + 1;
      const auto client = static_cast<sc::crypto::ProcessId>(first_client + j);
      workers.emplace_back([&, j, slice_seed, client] {
        if (rollup) {
          sc::workload::rollup::TxPoolConfig pc;
          pc.sessions = sessions;
          pc.budget = per_slice;
          pc.first_client = client;
          pc.client_span = 1;
          pc.account_base = 1'000'000 + j * sessions;
          pc.seed = slice_seed;
          tx[j] = sc::workload::rollup::build_tx_pool(pc, pki);
        } else {
          kv[j] = kv_slice(per_slice, client, slice_seed, pki);
        }
      });
    }
    for (auto& t : workers) t.join();
    out.round_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  auto& pool = out.pool;
  pool.cfg.sessions = sessions;
  pool.elements.reserve(per_slice * slices);
  for (std::size_t j = 0; j < slices; ++j) {
    auto& src = rollup ? tx[j].elements : kv[j];
    for (auto& e : src) pool.elements.push_back(std::move(e));
    if (rollup) {
      pool.cfg = tx[j].cfg;
      pool.accounts.insert(pool.accounts.end(), tx[j].accounts.begin(),
                           tx[j].accounts.end());
    }
  }
  pool.index.reserve(pool.elements.size());
  for (std::size_t k = 0; k < pool.elements.size(); ++k) {
    pool.index.emplace(pool.elements[k].id, static_cast<std::uint32_t>(k));
  }
  return out;
}

RecordingSource::RecordingSource(const std::vector<sc::core::Element>& pool,
                                 std::uint32_t sessions)
    : pool_(pool),
      stride_(sessions == 0 ? 1 : sessions),
      cursor_(stride_),
      sent_ns_(pool.size(), -1) {
  for (std::size_t s = 0; s < cursor_.size(); ++s) cursor_[s] = s;
}

const sc::core::Element* RecordingSource::next(std::uint32_t session) {
  const std::size_t s = session % stride_;
  const std::size_t k = cursor_[s];
  if (k >= pool_.size()) return nullptr;
  cursor_[s] += stride_;
  sent_ns_[k] = now_ns();
  return &pool_[k];
}

}  // namespace commitbench
