#include "transport/wire_format.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/check.h"
#include "transport/wire_format_internal.h"

namespace capp {

// Payloads are copied in and out as native doubles in one memcpy, the CRC
// trailer is stored as a native word, and the CRC folds read input as
// native little-endian words: all three are the wire's little-endian
// layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies native little-endian words");

namespace {

// CRC32 selection rule: Crc32() folds every input of 64 bytes and more
// with PCLMULQDQ carry-less multiplication when the CPU has it (x86-64,
// checked once through CPUID), and sends the sub-16-byte tail, every
// shorter input (handshakes, WAL headers), and everything on other CPUs
// through the slice-by-8 table. Both paths compute the same IEEE
// reflected CRC, bit for bit; frames, WAL segments and checkpoints are
// CRC'd on every hop, so this sits on the ingest and durability paths.

// Slice-by-8 table (0xEDB88320 polynomial): table[0] is the ordinary
// bytewise table; table[k][b] advances b through k additional zero bytes,
// letting the loop fold 8 input bytes per iteration.
constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTable = [] {
  std::array<std::array<uint32_t, 256>, 8> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      table[k][i] = table[0][table[k - 1][i] & 0xFFu] ^
                    (table[k - 1][i] >> 8);
    }
  }
  return table;
}();

// Advances the raw (uninverted) CRC register `c` over n bytes.
uint32_t CrcTableUpdate(uint32_t c, const uint8_t* p, size_t n) {
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= c;
    c = kCrcTable[7][chunk & 0xFFu] ^
        kCrcTable[6][(chunk >> 8) & 0xFFu] ^
        kCrcTable[5][(chunk >> 16) & 0xFFu] ^
        kCrcTable[4][(chunk >> 24) & 0xFFu] ^
        kCrcTable[3][(chunk >> 32) & 0xFFu] ^
        kCrcTable[2][(chunk >> 40) & 0xFFu] ^
        kCrcTable[1][(chunk >> 48) & 0xFFu] ^
        kCrcTable[0][chunk >> 56];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = kCrcTable[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    ++p;
    --n;
  }
  return c;
}

#if defined(__x86_64__)
// One 128-bit fold: x * x^k mod P for the (low, high) constant pair in
// `k`, plus the next 16 input bytes.
__attribute__((target("pclmul"))) inline __m128i Fold16(__m128i x,
                                                        __m128i k,
                                                        __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Advances the raw CRC register over n bytes, n >= 64 and a multiple of
// 16: four 128-bit lanes fold 64 bytes per iteration, collapse into one
// lane, fold any remaining 16-byte blocks, then reduce 128 -> 64 -> 32
// bits with a Barrett step. The constants are the bit-reflected IEEE
// folding constants of Intel's "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (as used by zlib's and
// Chromium's crc32_simd and Linux's crc32-pclmul).
__attribute__((target("pclmul"))) uint32_t CrcFoldUpdate(uint32_t crc,
                                                         const uint8_t* p,
                                                         size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i poly = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold16(x1, k1k2, load(p));
    x2 = Fold16(x2, k1k2, load(p + 16));
    x3 = Fold16(x3, k1k2, load(p + 32));
    x4 = Fold16(x4, k1k2, load(p + 48));
  }
  x1 = Fold16(x1, k3k4, x2);
  x1 = Fold16(x1, k3k4, x3);
  x1 = Fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold16(x1, k3k4, load(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}
#endif  // defined(__x86_64__)

// Varints cap at 10 bytes: ceil(64 / 7).
constexpr size_t kMaxVarintBytes = 10;

// Writes `value` as a varint at `p`; returns the bytes written.
size_t PutVarint(uint64_t value, uint8_t* p) {
  size_t n = 0;
  while (value >= 0x80) {
    p[n++] = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  p[n++] = static_cast<uint8_t>(value);
  return n;
}

Status FrameError(const std::string& what) {
  return Status::InvalidArgument("wire frame: " + what);
}

}  // namespace

namespace wire_internal {

uint32_t Crc32Table(std::span<const uint8_t> bytes) {
  return CrcTableUpdate(0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

bool Crc32FoldedSupported() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t Crc32Folded(std::span<const uint8_t> bytes) {
  CAPP_DCHECK(Crc32FoldedSupported());
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = CrcFoldUpdate(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return CrcTableUpdate(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace wire_internal

void AppendVarint(uint64_t value, std::vector<uint8_t>& out) {
  uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, buf + PutVarint(value, buf));
}

size_t DecodeVarint(std::span<const uint8_t> bytes, uint64_t* value) {
  uint64_t result = 0;
  for (size_t i = 0; i < bytes.size() && i < kMaxVarintBytes; ++i) {
    const uint8_t byte = bytes[i];
    // Byte 10 may only carry the single remaining bit of a 64-bit value.
    if (i == kMaxVarintBytes - 1 && byte > 1) return 0;
    result |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      // Minimal-length rule: a final group of zero means the previous byte
      // already determined the value (0x80 0x00 would decode to the same 0
      // as the single byte 0x00), so accepting it would give values more
      // than one wire representation -- and let a flipped continuation bit
      // survive as a "valid" overlong varint. Reject every non-canonical
      // encoding instead.
      if (i > 0 && byte == 0) return 0;
      *value = result;
      return i + 1;
    }
  }
  return 0;  // Ran out of bytes with the continuation bit still set.
}

uint32_t Crc32(std::span<const uint8_t> bytes) {
  return wire_internal::Crc32FoldedSupported()
             ? wire_internal::Crc32Folded(bytes)
             : wire_internal::Crc32Table(bytes);
}

void AppendUserRunFrame(uint64_t user_id, uint64_t base_slot,
                        std::span<const double> values,
                        std::vector<uint8_t>& out) {
  AppendMultiDimRunFrame(user_id, base_slot, /*dims=*/1, values, out);
}

void AppendMultiDimRunFrame(uint64_t user_id, uint64_t base_slot,
                            uint64_t dims, std::span<const double> values,
                            std::vector<uint8_t>& out) {
  // Encode must honor the same bounds decode enforces, or a frame could
  // be produced that every consumer rejects as corrupt.
  CAPP_CHECK(dims >= 1 && dims <= kWireMaxDims);
  CAPP_CHECK(values.size() <= kWireMaxRunLength);
  CAPP_CHECK(values.size() % dims == 0);
  CAPP_CHECK(RunFitsCellBound(base_slot, dims, values.size()));
  // The one frame writer. d=1 is always the 0xC5 frame with no dims
  // varint -- the bytes every d=1 WAL segment, checkpoint and digest was
  // written with -- so a 0xC6 frame claiming dims=1 cannot be produced.
  uint8_t header[1 + 4 * kMaxVarintBytes];
  size_t header_bytes = 0;
  header[header_bytes++] =
      dims == 1 ? kWireFrameMagic : kWireFrameMagicMultiDim;
  header_bytes += PutVarint(user_id, header + header_bytes);
  header_bytes += PutVarint(base_slot, header + header_bytes);
  if (dims != 1) header_bytes += PutVarint(dims, header + header_bytes);
  header_bytes += PutVarint(values.size(), header + header_bytes);

  // One resize, then the header, the payload as one bulk little-endian
  // copy, and the CRC trailer over everything before it.
  const size_t payload = values.size() * sizeof(double);
  const size_t start = out.size();
  out.resize(start + header_bytes + payload + 4);
  uint8_t* frame = out.data() + start;
  std::memcpy(frame, header, header_bytes);
  if (payload != 0) std::memcpy(frame + header_bytes, values.data(), payload);
  const uint32_t crc = Crc32({frame, header_bytes + payload});
  std::memcpy(frame + header_bytes + payload, &crc, 4);
}

namespace {

// Shared header parse for both decode and peek: magic, the 3 (0xC5) or 4
// (0xC6) varints, and the dims/count validity rules. On success `cursor`
// is one past the header and the outputs are validated.
Status ParseFrameHeader(std::span<const uint8_t> bytes, uint64_t* user_id,
                        uint64_t* base_slot, uint64_t* dims,
                        uint64_t* count, size_t* cursor) {
  if (bytes.empty()) return FrameError("empty input");
  const bool multi = bytes[0] == kWireFrameMagicMultiDim;
  if (!multi && bytes[0] != kWireFrameMagic) {
    return FrameError("bad magic byte");
  }
  *cursor = 1;
  *dims = 1;
  for (auto [field, name] : {std::pair{user_id, "user_id"},
                             {base_slot, "base_slot"}}) {
    const size_t used = DecodeVarint(bytes.subspan(*cursor), field);
    if (used == 0) {
      return FrameError(std::string("truncated ") + name + " varint");
    }
    *cursor += used;
  }
  if (multi) {
    const size_t used = DecodeVarint(bytes.subspan(*cursor), dims);
    if (used == 0) return FrameError("truncated dims varint");
    *cursor += used;
    if (*dims == 0) return FrameError("zero dims");
    if (*dims == 1) {
      // d=1 must travel as 0xC5; a 0xC6 claiming one dimension would give
      // the same run two wire representations (and two digest-relevant
      // byte streams), exactly the ambiguity the canonical-varint rule
      // exists to kill.
      return FrameError("non-canonical dims=1 multi-dim frame");
    }
    if (*dims > kWireMaxDims) return FrameError("absurd dimension count");
  }
  {
    const size_t used = DecodeVarint(bytes.subspan(*cursor), count);
    if (used == 0) return FrameError("truncated count varint");
    *cursor += used;
  }
  if (*count > kWireMaxRunLength) return FrameError("absurd run length");
  if (multi && *count % *dims != 0) {
    return FrameError("count not divisible by dims");
  }
  if (!RunFitsCellBound(*base_slot, *dims, *count)) {
    return FrameError("run ends past the cell bound");
  }
  return Status::OK();
}

}  // namespace

Result<size_t> DecodeUserRunFrame(std::span<const uint8_t> bytes,
                                  uint64_t* user_id, uint64_t* base_slot,
                                  uint64_t* dims,
                                  std::vector<double>& values) {
  uint64_t count = 0;
  size_t cursor = 0;
  CAPP_RETURN_IF_ERROR(
      ParseFrameHeader(bytes, user_id, base_slot, dims, &count, &cursor));
  // Payload + trailer must fit in what's left (checked before multiplying
  // blows past the span: count is already <= 2^24).
  const size_t payload = static_cast<size_t>(count) * 8;
  if (bytes.size() - cursor < payload + 4) {
    return FrameError("truncated payload");
  }
  const uint32_t computed = Crc32(bytes.subspan(0, cursor + payload));
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + cursor + payload, 4);
  if (computed != stored) return FrameError("CRC mismatch");

  // No clear() first: a scratch vector reused for same-length runs is
  // resized in place without zero-filling, then overwritten in one copy.
  values.resize(count);
  if (payload != 0) {
    std::memcpy(values.data(), bytes.data() + cursor, payload);
  }
  return cursor + payload + 4;
}

Result<size_t> DecodeUserRunFrame(std::span<const uint8_t> bytes,
                                  uint64_t* user_id, uint64_t* base_slot,
                                  std::vector<double>& values) {
  uint64_t dims = 1;
  CAPP_ASSIGN_OR_RETURN(
      const size_t consumed,
      DecodeUserRunFrame(bytes, user_id, base_slot, &dims, values));
  if (dims != 1) {
    // This overload's callers treat every value as one slot's scalar;
    // silently flattening a d-dim payload here would merge attributes.
    return FrameError("multi-dim frame through the one-dim decoder");
  }
  return consumed;
}

Result<WireFrameHeader> PeekUserRunFrame(std::span<const uint8_t> bytes) {
  WireFrameHeader header;
  size_t cursor = 0;
  CAPP_RETURN_IF_ERROR(ParseFrameHeader(bytes, &header.user_id,
                                        &header.base_slot, &header.dims,
                                        &header.count, &cursor));
  header.frame_bytes = cursor + static_cast<size_t>(header.count) * 8 + 4;
  if (header.frame_bytes > bytes.size()) {
    return FrameError("frame extends past the buffer");
  }
  return header;
}

}  // namespace capp
