// Private to transport/wire_format.cc and its tests: the two CRC32
// implementations behind the public Crc32(). Production code calls
// Crc32(), which picks one at run time; these entry points exist so a test
// can hold each path against a reference independently of that choice.
#ifndef CAPP_TRANSPORT_WIRE_FORMAT_INTERNAL_H_
#define CAPP_TRANSPORT_WIRE_FORMAT_INTERNAL_H_

#include <cstdint>
#include <span>

namespace capp::wire_internal {

/// Crc32() through the slice-by-8 table alone (every CPU).
uint32_t Crc32Table(std::span<const uint8_t> bytes);

/// True when this CPU can run Crc32Folded() (x86-64 with PCLMULQDQ).
bool Crc32FoldedSupported();

/// Crc32() with inputs of 64 bytes and more folded by carry-less
/// multiplication and the sub-16-byte tail (and shorter inputs) through
/// the table. Requires Crc32FoldedSupported().
uint32_t Crc32Folded(std::span<const uint8_t> bytes);

}  // namespace capp::wire_internal

#endif  // CAPP_TRANSPORT_WIRE_FORMAT_INTERNAL_H_
