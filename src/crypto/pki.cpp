#include "crypto/pki.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "crypto/sha512.hpp"

namespace setchain::crypto {

namespace {

/// The lazy comb of -A for `pub`, one per key in the whole process: every
/// Pki registering the key gets the same comb while any of them lives.
std::shared_ptr<const GeLazyComb> shared_comb(const Ed25519::PublicKey& pub) {
  static std::mutex mu;
  static std::map<Ed25519::PublicKey, std::weak_ptr<const GeLazyComb>> combs;
  static std::size_t live_after_sweep = 0;
  const std::lock_guard lock(mu);
  std::weak_ptr<const GeLazyComb>& slot = combs[pub];
  if (auto comb = slot.lock()) return comb;
  // Keys come from keypair(), so they always decode.
  auto comb = std::make_shared<const GeLazyComb>(
      Ge::decompress(codec::ByteView(pub.data(), pub.size()))->negate());
  slot = comb;
  if (combs.size() > 2 * live_after_sweep + 64) {  // drop keys no Pki holds
    std::erase_if(combs, [](const auto& kv) { return kv.second.expired(); });
    live_after_sweep = combs.size();
  }
  return comb;
}

}  // namespace

Pki::Pki(std::uint64_t master_seed) : master_seed_(master_seed) {}

const Ed25519::PublicKey& Pki::register_process(ProcessId id) {
  auto it = keys_.find(id);
  if (it != keys_.end()) return it->second.verify.bytes;

  // seed = SHA-512(master_seed || id)[0..32): deterministic, collision-free
  // per process.
  codec::Bytes material;
  codec::append_u64le(material, master_seed_);
  codec::append_u32le(material, id);
  const auto digest = Sha512::hash(material);

  Ed25519::Seed seed;
  std::copy(digest.begin(), digest.begin() + 32, seed.begin());
  auto [signing, verify] = Ed25519::keypair(seed);
  auto [pos, _] = keys_.emplace(id, Entry{signing, verify, shared_comb(verify.bytes)});
  return pos->second.verify.bytes;
}

const Ed25519::PublicKey& Pki::public_key(ProcessId id) const {
  auto it = keys_.find(id);
  if (it == keys_.end()) throw std::out_of_range("Pki: unknown process");
  return it->second.verify.bytes;
}

Ed25519::Signature Pki::sign(ProcessId id, codec::ByteView message) const {
  auto it = keys_.find(id);
  if (it == keys_.end()) throw std::out_of_range("Pki: unknown process");
  return Ed25519::sign(it->second.signing, message);
}

bool Pki::verify(ProcessId id, codec::ByteView message,
                 const Ed25519::Signature& sig) const {
  auto it = keys_.find(id);
  if (it == keys_.end()) return false;
  return Ed25519::verify(it->second.verify.bytes, it->second.neg_a_comb->get(), message, sig);
}

Ed25519::BatchResult Pki::verify_batch(std::span<const SignedMessage> items) const {
  std::vector<Ed25519::BatchEntry> entries;
  std::vector<std::size_t> positions;  ///< items index of each batch entry
  entries.reserve(items.size());
  positions.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto it = keys_.find(items[i].signer);
    if (it == keys_.end()) continue;  // unknown process: invalid, not batched
    const Ed25519::VerifyKey& key = it->second.verify;
    entries.push_back(Ed25519::BatchEntry{&key.bytes, items[i].message, items[i].sig, &key});
    positions.push_back(i);
  }

  const Ed25519::BatchResult inner = Ed25519::verify_batch(entries);
  Ed25519::BatchResult out;
  out.valid.assign(items.size(), false);
  for (std::size_t j = 0; j < positions.size(); ++j) out.valid[positions[j]] = inner.valid[j];
  out.all_valid = inner.all_valid && positions.size() == items.size();
  return out;
}

std::vector<ProcessId> Pki::processes() const {
  std::vector<ProcessId> out;
  out.reserve(keys_.size());
  for (const auto& [id, _] : keys_) out.push_back(id);
  return out;
}

}  // namespace setchain::crypto
