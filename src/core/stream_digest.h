// The engine's published-stream digest (digest v2).
//
// A fleet run's determinism contract is summarized in one number: the XOR
// over users of a per-user hash of (user id, published stream bits). XOR
// commutes, so the digest is identical for every thread count, transport,
// and ingest order that delivers the same per-user streams.
//
// v1 hashed each stream with per-byte FNV-1a -- a serial xor-multiply
// chain costing ~9 ns per slot, which by PR 6 was one of the two largest
// per-report costs. v2 (this header) replaces it with a wyhash-style
// chunk digest: each 8-byte word is folded through one 128-bit multiply
// (the "mum" primitive), and two interleaved lanes break the serial
// dependency so the hash runs at a word per few cycles instead of eight
// serial multiplies per word. The per-user hash changed, so every
// committed digest changed once with it (the scenario pins in the tests
// record today's values); the XOR-combination -- and with it thread/transport/replay invariance
// -- is unchanged.
//
// Header-only: the hash is called once per simulated user inside the
// fleet's worker loop, and the test oracle must be able to reproduce it
// exactly, so there is one inline definition both link against.
#ifndef CAPP_CORE_STREAM_DIGEST_H_
#define CAPP_CORE_STREAM_DIGEST_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace capp {

/// 128-bit multiply folded to 64 bits: the wyhash/xxh3 mixing primitive.
/// One widening multiply plus one xor -- full avalanche across both words.
inline uint64_t DigestMum(uint64_t a, uint64_t b) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

/// Per-user chunk digest of a published stream: a pure function of
/// (user_id, the stream's length and bit patterns). The fleet digest is
/// the XOR of this hash over all users. The final mix folds the length
/// in, so streams that are prefixes of each other hash differently.
inline uint64_t UserStreamDigest(uint64_t user_id,
                                 std::span<const double> published) {
  // wyhash's published secret constants (odd, high-entropy).
  constexpr uint64_t kSecret0 = 0xA0761D6478BD642FULL;
  constexpr uint64_t kSecret1 = 0xE7037ED1A0B428DBULL;
  constexpr uint64_t kSecret2 = 0x8EBC6AF09C88C6E3ULL;
  constexpr uint64_t kSecret3 = 0x589965CC75374CC3ULL;
  uint64_t lane0 = DigestMum(user_id ^ kSecret0, kSecret1);
  uint64_t lane1 = DigestMum(user_id ^ kSecret2, kSecret3);
  size_t i = 0;
  const size_t n = published.size();
  for (; i + 2 <= n; i += 2) {
    lane0 = DigestMum(std::bit_cast<uint64_t>(published[i]) ^ kSecret1,
                      lane0 ^ kSecret2);
    lane1 = DigestMum(std::bit_cast<uint64_t>(published[i + 1]) ^ kSecret3,
                      lane1 ^ kSecret0);
  }
  if (i < n) {
    lane0 = DigestMum(std::bit_cast<uint64_t>(published[i]) ^ kSecret1,
                      lane0 ^ kSecret2);
  }
  return DigestMum(lane0 ^ static_cast<uint64_t>(n), lane1 ^ kSecret3);
}

}  // namespace capp

#endif  // CAPP_CORE_STREAM_DIGEST_H_
