#pragma once

#include <cstdint>
#include <optional>

#include "codec/byte_io.hpp"
#include "codec/bytes.hpp"
#include "core/config.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/pki.hpp"
#include "workload/arbitrum_like.hpp"

namespace setchain::core {

/// Globally unique element identifier: (client id << 40) | per-client seq.
using ElementId = std::uint64_t;

constexpr ElementId make_element_id(crypto::ProcessId client, std::uint64_t seq) {
  return (static_cast<ElementId>(client) << 40) | (seq & ((std::uint64_t{1} << 40) - 1));
}
constexpr crypto::ProcessId element_client(ElementId id) {
  return static_cast<crypto::ProcessId>(id >> 40);
}

/// A Setchain element: client-created, signed content (the paper replays
/// Arbitrum transactions as elements). `wire_size` is the serialized length;
/// in calibrated fidelity the payload bytes stay virtual.
struct Element {
  ElementId id = 0;
  crypto::ProcessId client = 0;
  std::uint32_t wire_size = 0;

  // Full fidelity only:
  codec::Bytes payload;
  crypto::Ed25519::Signature sig{};

  // Calibrated fidelity: precomputed validity (signature checked by flag,
  // CPU time still charged through CostModel).
  bool valid_flag = true;

  bool operator==(const Element& o) const { return id == o.id; }
};

/// Fixed serialization overhead on top of the payload: tag(1) + id(8) +
/// client(4) + payload length prefix(varint<=4) + signature(64).
constexpr std::uint32_t kElementOverhead = 1 + 8 + 4 + 4 + 64;
constexpr std::uint8_t kElementTag = 0x01;

void serialize_element(codec::Writer& w, const Element& e);
std::optional<Element> parse_element(codec::Reader& r);

/// The paper's valid_element(e): syntactic well-formedness plus client
/// signature over the payload (only authenticated valid elements are
/// processed by correct servers; servers cannot forge them).
bool valid_element(const Element& e, const crypto::Pki& pki, Fidelity fidelity);

/// Batched valid_element over a block's worth of elements: the syntactic
/// checks run per element, but all client signatures are verified with ONE
/// Ed25519 batch check (full fidelity), amortizing the curve arithmetic
/// across the block. result[i] == valid_element(es[i], ...) for every i.
/// `known_valid[i]` (when present) says es[i] already passed valid_element
/// on this server: it is reported valid without being checked again.
std::vector<bool> valid_elements(const std::vector<Element>& es, const crypto::Pki& pki,
                                 Fidelity fidelity,
                                 const std::vector<bool>& known_valid = {});

/// 8-byte content digest used in canonical epoch hashes. Full fidelity:
/// first bytes of SHA-512(payload); calibrated: splitmix of the id.
std::uint64_t element_digest(const Element& e, Fidelity fidelity);

/// Creates elements on behalf of simulated clients: samples the
/// Arbitrum-like size distribution and (in full fidelity) materializes and
/// signs the payload with the client's PKI key.
class ElementFactory {
 public:
  ElementFactory(workload::ArbitrumLikeGenerator& gen, crypto::Pki& pki,
                 Fidelity fidelity);

  Element make(crypto::ProcessId client, std::uint64_t seq);

  /// A malformed element (bad signature / corrupt payload) as a Byzantine
  /// client would produce. Correct servers must reject it.
  Element make_invalid(crypto::ProcessId client, std::uint64_t seq);

  std::uint64_t created() const { return created_; }

 private:
  workload::ArbitrumLikeGenerator& gen_;
  crypto::Pki& pki_;
  Fidelity fidelity_;
  std::uint64_t created_ = 0;
};

}  // namespace setchain::core
