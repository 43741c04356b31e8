#include "core/proofs.hpp"

#include "sim/rng.hpp"

namespace setchain::core {

EpochHash epoch_hash(std::uint64_t epoch,
                     const std::vector<std::pair<ElementId, std::uint64_t>>& id_digests,
                     Fidelity fidelity) {
  if (fidelity == Fidelity::kFull) {
    crypto::Sha512 h;
    codec::Writer w;
    w.u64le(epoch);
    w.varint(id_digests.size());
    for (const auto& [id, digest] : id_digests) {
      w.u64le(id);
      w.u64le(digest);
    }
    return crypto::Sha512::hash(w.buffer());
  }
  // Calibrated: cheap deterministic mixing of the same inputs.
  std::uint64_t acc = 0x5E7C4A1E ^ epoch;
  for (const auto& [id, digest] : id_digests) {
    std::uint64_t s = acc ^ id ^ (digest * 0x9E3779B97F4A7C15ULL);
    acc = sim::splitmix64(s);
  }
  EpochHash out{};
  std::uint64_t s = acc;
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t v = sim::splitmix64(s);
    for (std::size_t j = 0; j < 8; ++j) out[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
  }
  return out;
}

namespace {
/// Fixed 139-byte frame: tag(1) ver(1) epoch(4) server(2) reserved(3)
/// hash(64) sig(64).
void write_frame139(codec::Writer& w, std::uint8_t tag, std::uint32_t word,
                    std::uint16_t server, const EpochHash& hash,
                    const crypto::Ed25519::Signature& sig) {
  w.u8(tag);
  w.u8(1);  // version
  w.u32le(word);
  w.u8(static_cast<std::uint8_t>(server));
  w.u8(static_cast<std::uint8_t>(server >> 8));
  w.u8(0).u8(0).u8(0);  // reserved
  w.bytes(codec::ByteView(hash.data(), hash.size()));
  w.bytes(codec::ByteView(sig.data(), sig.size()));
}

struct Frame139 {
  std::uint32_t word;
  std::uint16_t server;
  EpochHash hash;
  crypto::Ed25519::Signature sig;
};

std::optional<Frame139> read_frame139(codec::Reader& r) {
  // Caller consumed the tag.
  Frame139 f;
  const auto ver = r.u8();
  if (!ver || *ver != 1) return std::nullopt;
  const auto word = r.u32le();
  const auto s0 = r.u8();
  const auto s1 = r.u8();
  if (!word || !s0 || !s1) return std::nullopt;
  if (!r.u8() || !r.u8() || !r.u8()) return std::nullopt;  // reserved
  const auto hash = r.bytes(64);
  const auto sig = r.bytes(64);
  if (!hash || !sig) return std::nullopt;
  f.word = *word;
  f.server = static_cast<std::uint16_t>(*s0 | (*s1 << 8));
  std::copy(hash->begin(), hash->end(), f.hash.begin());
  std::copy(sig->begin(), sig->end(), f.sig.begin());
  return f;
}
}  // namespace

PrefixDigest chain_digest(const PrefixDigest& prev, std::uint64_t number,
                          const EpochHash& hash) {
  std::array<std::uint8_t, 8> num;
  for (std::size_t i = 0; i < num.size(); ++i) {
    num[i] = static_cast<std::uint8_t>(number >> (8 * i));
  }
  crypto::Sha256 h;
  h.update(prev);
  h.update(num);
  h.update(hash);
  return h.finalize();
}

void serialize_epoch_proof(codec::Writer& w, const EpochProof& p) {
  write_frame139(w, kEpochProofTag, static_cast<std::uint32_t>(p.epoch),
                 static_cast<std::uint16_t>(p.server), p.epoch_hash, p.sig);
}

std::optional<EpochProof> parse_epoch_proof(codec::Reader& r) {
  const auto f = read_frame139(r);
  if (!f) return std::nullopt;
  EpochProof p;
  p.epoch = f->word;
  p.server = f->server;
  p.epoch_hash = f->hash;
  p.sig = f->sig;
  return p;
}

EpochProof make_epoch_proof(const crypto::Pki& pki, crypto::ProcessId server,
                            std::uint64_t epoch, const EpochHash& hash,
                            Fidelity fidelity) {
  EpochProof p;
  p.epoch = epoch;
  p.server = server;
  p.epoch_hash = hash;
  if (fidelity == Fidelity::kFull) {
    p.sig = pki.sign(server, codec::ByteView(hash.data(), hash.size()));
  }
  return p;
}

bool valid_proof(const EpochProof& p, const EpochHash& expected,
                 const crypto::Pki& pki, Fidelity fidelity, SigCheck presig) {
  if (p.epoch_hash != expected) return false;
  if (fidelity == Fidelity::kCalibrated) return p.valid_flag;
  if (presig != SigCheck::kUnchecked) return presig == SigCheck::kValid;
  return pki.verify(p.server, codec::ByteView(p.epoch_hash.data(), p.epoch_hash.size()),
                    p.sig);
}

void serialize_hash_batch(codec::Writer& w, const HashBatchMsg& hb) {
  write_frame139(w, kHashBatchTag, 0, static_cast<std::uint16_t>(hb.server), hb.hash,
                 hb.sig);
}

std::optional<HashBatchMsg> parse_hash_batch(codec::Reader& r) {
  const auto f = read_frame139(r);
  if (!f) return std::nullopt;
  HashBatchMsg hb;
  hb.server = f->server;
  hb.hash = f->hash;
  hb.sig = f->sig;
  return hb;
}

HashBatchMsg make_hash_batch(const crypto::Pki& pki, crypto::ProcessId server,
                             const EpochHash& h, Fidelity fidelity) {
  HashBatchMsg hb;
  hb.hash = h;
  hb.server = server;
  if (fidelity == Fidelity::kFull) {
    hb.sig = pki.sign(server, codec::ByteView(h.data(), h.size()));
  }
  return hb;
}

bool valid_hash_batch(const HashBatchMsg& hb, const crypto::Pki& pki, Fidelity fidelity,
                      SigCheck presig) {
  if (fidelity == Fidelity::kCalibrated) return hb.valid_flag;
  if (presig != SigCheck::kUnchecked) return presig == SigCheck::kValid;
  return pki.verify(hb.server, codec::ByteView(hb.hash.data(), hb.hash.size()), hb.sig);
}

std::vector<SigCheck> batch_check_proof_sigs(const std::vector<EpochProof>& ps,
                                             const crypto::Pki& pki, Fidelity fidelity) {
  std::vector<SigCheck> out(ps.size(), SigCheck::kUnchecked);
  if (fidelity != Fidelity::kFull || ps.size() < 2) return out;
  std::vector<crypto::Pki::SignedMessage> items;
  items.reserve(ps.size());
  for (const auto& p : ps) {
    items.push_back(crypto::Pki::SignedMessage{
        p.server, codec::ByteView(p.epoch_hash.data(), p.epoch_hash.size()), &p.sig});
  }
  const auto res = pki.verify_batch(items);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = res.valid[i] ? SigCheck::kValid : SigCheck::kInvalid;
  }
  return out;
}

std::vector<SigCheck> batch_check_hash_batch_sigs(const std::vector<HashBatchMsg>& hbs,
                                                  const crypto::Pki& pki,
                                                  Fidelity fidelity) {
  std::vector<SigCheck> out(hbs.size(), SigCheck::kUnchecked);
  if (fidelity != Fidelity::kFull || hbs.size() < 2) return out;
  std::vector<crypto::Pki::SignedMessage> items;
  items.reserve(hbs.size());
  for (const auto& hb : hbs) {
    items.push_back(crypto::Pki::SignedMessage{
        hb.server, codec::ByteView(hb.hash.data(), hb.hash.size()), &hb.sig});
  }
  const auto res = pki.verify_batch(items);
  for (std::size_t i = 0; i < hbs.size(); ++i) {
    out[i] = res.valid[i] ? SigCheck::kValid : SigCheck::kInvalid;
  }
  return out;
}

}  // namespace setchain::core
