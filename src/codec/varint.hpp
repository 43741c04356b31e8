#pragma once

#include <cstdint>
#include <optional>

#include "codec/bytes.hpp"

namespace setchain::codec {

/// LEB128 unsigned varint (protobuf-style): 7 data bits per byte, MSB is the
/// continuation flag. Values up to 64 bits -> at most 10 bytes.
void put_varint(Bytes& out, std::uint64_t v);

/// Number of bytes put_varint would emit.
std::size_t varint_size(std::uint64_t v);

/// Decode a varint at `in[pos...]`; advances pos. Accepts exactly the
/// encodings put_varint writes: nullopt on truncated or overlong (>10 byte)
/// input, on a non-minimal encoding (a zero final byte after a
/// continuation, e.g. `80 00`), and on a tenth byte above 1 (bits past
/// 2^64). So every value has one encoding and parsers are byte-exact.
std::optional<std::uint64_t> get_varint(ByteView in, std::size_t& pos);

}  // namespace setchain::codec
