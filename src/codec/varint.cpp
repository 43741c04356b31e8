#include "codec/varint.hpp"

namespace setchain::codec {

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::optional<std::uint64_t> get_varint(ByteView in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= in.size()) return std::nullopt;
    const std::uint8_t b = in[pos++];
    if (i == 9 && b > 1) return std::nullopt;  // bits past 2^64
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      // A zero final group after a continuation adds nothing: put_varint
      // never writes it, so only the minimal encoding of v parses.
      if (b == 0 && i > 0) return std::nullopt;
      return v;
    }
    shift += 7;
  }
  return std::nullopt;  // overlong encoding
}

}  // namespace setchain::codec
