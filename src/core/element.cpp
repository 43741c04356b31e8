#include "core/element.hpp"

#include "crypto/sha512.hpp"
#include "sim/rng.hpp"

namespace setchain::core {

void serialize_element(codec::Writer& w, const Element& e) {
  w.u8(kElementTag);
  w.u64le(e.id);
  w.u32le(e.client);
  w.lp_bytes(e.payload);
  w.bytes(codec::ByteView(e.sig.data(), e.sig.size()));
}

std::optional<Element> parse_element(codec::Reader& r) {
  // Caller consumed the tag already.
  const std::size_t start = r.position();
  Element e;
  const auto id = r.u64le();
  const auto client = r.u32le();
  const auto payload = r.lp_bytes();
  if (!id || !client || !payload) return std::nullopt;
  const auto sig = r.bytes(crypto::Ed25519::kSignatureSize);
  if (!sig) return std::nullopt;
  e.id = *id;
  e.client = *client;
  e.payload.assign(payload->begin(), payload->end());
  std::copy(sig->begin(), sig->end(), e.sig.begin());
  // wire_size is the bytes actually consumed (plus the tag the caller read):
  // recomputing it from a size formula can silently drift from the real
  // frame length when the format changes.
  e.wire_size = static_cast<std::uint32_t>(r.position() - start + 1);
  return e;
}

namespace {

/// The signed message of an element: id || payload, so the signature also
/// authenticates placement. Must match ElementFactory::make.
codec::Bytes element_signed_message(const Element& e) {
  codec::Writer w;
  w.u64le(e.id);
  w.bytes(e.payload);
  return w.take();
}

/// Syntactic well-formedness shared by the scalar and batched validators;
/// everything except the signature.
bool element_well_formed(const Element& e, Fidelity fidelity) {
  // The id must be bound to the signing client, or a Byzantine client could
  // replay another client's payload under a colliding id.
  if (element_client(e.id) != e.client) return false;
  if (fidelity == Fidelity::kFull && e.payload.empty()) return false;
  return true;
}

}  // namespace

bool valid_element(const Element& e, const crypto::Pki& pki, Fidelity fidelity) {
  if (!element_well_formed(e, fidelity)) return false;
  if (fidelity == Fidelity::kCalibrated) return e.valid_flag;
  return pki.verify(e.client, element_signed_message(e), e.sig);
}

std::vector<bool> valid_elements(const std::vector<Element>& es, const crypto::Pki& pki,
                                 Fidelity fidelity, const std::vector<bool>& known_valid) {
  std::vector<bool> out(es.size(), false);
  const auto known = [&](std::size_t i) { return i < known_valid.size() && known_valid[i]; };
  if (fidelity == Fidelity::kCalibrated) {
    for (std::size_t i = 0; i < es.size(); ++i) {
      out[i] = known(i) || (element_well_formed(es[i], fidelity) && es[i].valid_flag);
    }
    return out;
  }

  // Collect the signed messages of the well-formed elements, then verify
  // all signatures in one batch (with bisection culprit identification, so
  // per-element results match scalar valid_element exactly).
  std::vector<codec::Bytes> messages;
  std::vector<std::size_t> positions;
  messages.reserve(es.size());
  positions.reserve(es.size());
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (known(i)) {
      out[i] = true;
      continue;
    }
    if (!element_well_formed(es[i], fidelity)) continue;
    messages.push_back(element_signed_message(es[i]));
    positions.push_back(i);
  }
  // Views are built only after `messages` stops growing (reallocation would
  // invalidate them).
  std::vector<crypto::Pki::SignedMessage> items;
  items.reserve(positions.size());
  for (std::size_t j = 0; j < positions.size(); ++j) {
    items.push_back(crypto::Pki::SignedMessage{es[positions[j]].client, messages[j],
                                               &es[positions[j]].sig});
  }
  const auto res = pki.verify_batch(items);
  for (std::size_t j = 0; j < positions.size(); ++j) out[positions[j]] = res.valid[j];
  return out;
}

std::uint64_t element_digest(const Element& e, Fidelity fidelity) {
  if (fidelity == Fidelity::kFull && !e.payload.empty()) {
    const auto d = crypto::Sha512::hash(e.payload);
    return codec::read_u64le(codec::ByteView(d.data(), 8));
  }
  std::uint64_t s = e.id ^ 0xC0FFEE5EED5EEDULL;
  return sim::splitmix64(s);
}

ElementFactory::ElementFactory(workload::ArbitrumLikeGenerator& gen, crypto::Pki& pki,
                               Fidelity fidelity)
    : gen_(gen), pki_(pki), fidelity_(fidelity) {}

Element ElementFactory::make(crypto::ProcessId client, std::uint64_t seq) {
  ++created_;
  Element e;
  e.client = client;
  e.id = make_element_id(client, seq);
  const std::uint32_t target = gen_.sample_size();
  if (fidelity_ == Fidelity::kCalibrated) {
    e.wire_size = target;
    e.valid_flag = true;
    return e;
  }
  const std::uint32_t payload_size =
      target > kElementOverhead ? target - kElementOverhead : 16;
  e.payload = gen_.make_payload(e.id, payload_size);
  e.sig = pki_.sign(client, element_signed_message(e));
  codec::Writer ser;
  serialize_element(ser, e);
  e.wire_size = static_cast<std::uint32_t>(ser.size());
  return e;
}

Element ElementFactory::make_invalid(crypto::ProcessId client, std::uint64_t seq) {
  Element e = make(client, seq);
  if (fidelity_ == Fidelity::kCalibrated) {
    e.valid_flag = false;
  } else {
    e.sig[0] ^= 0xFF;  // break the signature
  }
  return e;
}

}  // namespace setchain::core
