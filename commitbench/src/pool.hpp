#pragma once

#include <cstdint>
#include <vector>

#include "crypto/pki.hpp"
#include "load/arrival.hpp"
#include "load/fleet.hpp"
#include "workload/rollup.hpp"

namespace commitbench {

namespace sc = setchain;

/// Arrival offsets (seconds from phase start) the fleet will produce for
/// `cfg` over `seconds`, plus a short tail past the end: the fleet draws
/// from an identically seeded ArrivalProcess, so arrival k here is arrival
/// k there.
std::vector<double> arrival_schedule(const sc::load::ArrivalConfig& cfg, double seconds);

/// Pre-signed elements, pool index k = the k-th arrival. For a rollup the
/// whole TxPool (accounts, index) is kept; a kv pool fills only `elements`
/// and `index`.
struct PoolBuild {
  sc::workload::rollup::TxPool pool;
  /// Wall time of each equal-sized build round (the set-up is repeated
  /// `rounds` times; its median is the steady set-up cost).
  std::vector<double> round_s;
};

/// Build `budget` elements (rounded up to whole slices) in `rounds`
/// sequential rounds of `threads` parallel slices. Slice j signs with PKI
/// client `first_client + j`, so ids never collide across slices. A kv
/// slice holds Arbitrum-like puts; a rollup slice is a TxPool over its own
/// `sessions` accounts, striped so session s offers its txs in nonce order.
/// Every client id used must be registered in `pki` beforehand.
PoolBuild build_pool(bool rollup, std::size_t budget, std::uint32_t sessions,
                     sc::crypto::ProcessId first_client, std::uint64_t seed,
                     sc::crypto::Pki& pki, unsigned rounds, unsigned threads);

/// The fleet's element supply: the pool striped across sessions exactly as
/// load::PooledElementSource stripes it (session s offers s, s+S, ...), so
/// with every session alive pool index k is offered for arrival k. Records
/// when each element was handed to the fleet for sending.
class RecordingSource final : public sc::load::IElementSource {
 public:
  RecordingSource(const std::vector<sc::core::Element>& pool, std::uint32_t sessions);
  const sc::core::Element* next(std::uint32_t session) override;
  /// Steady-clock ns at which element k was sent; -1 if never.
  const std::vector<std::int64_t>& sent_ns() const { return sent_ns_; }

 private:
  const std::vector<sc::core::Element>& pool_;
  std::size_t stride_;
  std::vector<std::size_t> cursor_;
  std::vector<std::int64_t> sent_ns_;
};

}  // namespace commitbench
