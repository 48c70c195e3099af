#ifndef senseiSerialization_h
#define senseiSerialization_h

/// @file senseiSerialization.h
/// Byte-level serialization of data-model tables for the in transit
/// transport, the analysis service and the binary file writers. One
/// format ("STBC") crosses every boundary, with fixed-width little-endian
/// integer fields (the stream is decodable regardless of either end's
/// size_t width or byte order). Columns keep their native scalar type and
/// each column's values travel as one self-describing cmp chunk (codec
/// id, dtype, counts, checksum in the chunk header — see cmpCodec.h):
///
///   u8[4] magic "STBC", u8 version (1), u8 flags, u16 reserved
///   u64 columnCount
///   per column: u64 nameLength, name bytes,
///               u64 tupleCount, u64 componentCount,
///               cmp chunk (48-byte header + encoded payload)
///
/// The codec is negotiated per array from the requested parameters and
/// the column dtype (integers -> delta-varint, floats -> quantize or
/// shuffle-rle, see cmp::Negotiate); an uncompressed table requests
/// codec `none`, whose chunk is the raw values. The chunk header records
/// what was actually used, so decoding needs no out-of-band information.

#include "cmpCodec.h"
#include "svtkDataObject.h"

#include <cstdint>
#include <vector>

namespace sensei
{

/// Serialize a table, requesting `params` for every column (negotiated
/// per column dtype; lossy codecs never apply to integer columns).
/// Columns keep their native scalar type; device-resident columns are
/// pulled through the data model's host access path.
std::vector<std::uint8_t> SerializeTableCompressed(const svtkTable *table,
                                                   const cmp::Params &params);

/// Rebuild a table from SerializeTableCompressed bytes; columns come back
/// as host-resident AOS arrays of their native scalar type. The caller
/// owns the returned reference. Throws std::runtime_error on malformed or
/// corrupt input (including chunk checksum mismatches).
svtkTable *DeserializeTableCompressed(const std::uint8_t *bytes,
                                     std::size_t size);

/// Convenience overload.
inline svtkTable *
DeserializeTableCompressed(const std::vector<std::uint8_t> &bytes)
{
  return DeserializeTableCompressed(bytes.data(), bytes.size());
}

/// The bytes of `table`'s values: per column, tuples x components x the
/// size of its scalar type. The raw volume a serialized table stands for.
std::size_t TableValueBytes(const svtkTable *table);

/// Merge rows of several tables with identical schemas (same column
/// names, components, order) into one host-resident table. Used by the
/// in transit endpoint to assemble the blocks it receives. A column
/// keeps its native scalar type when every part holds it as a host AOS
/// array of that type (as DeserializeTableCompressed makes them), and
/// is widened to f64 otherwise (a type mismatch between parts, or
/// another array flavour). The caller owns the returned reference.
/// Throws std::runtime_error on schema mismatch; an empty input list
/// yields an empty table.
svtkTable *ConcatenateTables(const std::vector<svtkTable *> &parts);

} // namespace sensei

#endif
