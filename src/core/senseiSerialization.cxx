#include "senseiSerialization.h"

#include "svtkAOSDataArray.h"
#include "svtkArrayUtils.h"

#include <cstring>
#include <stdexcept>

namespace sensei
{

namespace
{
std::uint64_t GetU64(const std::uint8_t *bytes, std::size_t size,
                     std::size_t &pos)
{
  if (size - pos < sizeof(std::uint64_t) || pos > size)
    throw std::runtime_error("DeserializeTableCompressed: truncated input");
  const std::uint64_t v = cmp::LoadLE64(bytes + pos);
  pos += sizeof(std::uint64_t);
  return v;
}

cmp::DType DTypeOf(svtkScalarType t)
{
  switch (t)
  {
    case svtkScalarType::Float32:
      return cmp::DType::F32;
    case svtkScalarType::Float64:
      return cmp::DType::F64;
    case svtkScalarType::Int32:
      return cmp::DType::I32;
    case svtkScalarType::Int64:
      return cmp::DType::I64;
    case svtkScalarType::UInt8:
      return cmp::DType::U8;
  }
  throw std::invalid_argument("SerializeTableCompressed: unknown scalar type");
}

/// Build one typed column and decode the chunk at `bytes` into it.
template <typename T>
svtkDataArray *DecodeColumn(const std::string &name, std::uint64_t count,
                           int comps, const std::uint8_t *bytes,
                           std::size_t avail, std::size_t &consumed)
{
  auto *a = svtkAOSDataArray<T>::New(name);
  try
  {
    a->SetNumberOfComponents(comps);
    a->GetVector().resize(static_cast<std::size_t>(count));
    consumed = cmp::DecodeChunk(bytes, avail, a->GetVector().data(),
                                static_cast<std::size_t>(count) * sizeof(T));
  }
  catch (...)
  {
    a->Delete();
    throw;
  }
  return a;
}

constexpr std::uint8_t kTableMagic[4] = {'S', 'T', 'B', 'C'};
constexpr std::uint8_t kTableVersion = 1;
} // namespace

std::vector<std::uint8_t> SerializeTableCompressed(const svtkTable *table,
                                                   const cmp::Params &params)
{
  if (!table)
    throw std::invalid_argument("SerializeTableCompressed: null table");

  std::vector<std::uint8_t> out;
  out.insert(out.end(), kTableMagic, kTableMagic + 4);
  out.push_back(kTableVersion);
  out.push_back(0); // flags
  out.push_back(0); // reserved (u16 LE)
  out.push_back(0);

  const int nCols = table->GetNumberOfColumns();
  cmp::PutLE64(out, static_cast<std::uint64_t>(nCols));

  for (int c = 0; c < nCols; ++c)
  {
    const svtkDataArray *col = table->GetColumn(c);
    const std::string &name = col->GetName();

    cmp::PutLE64(out, name.size());
    out.insert(out.end(), name.begin(), name.end());

    cmp::PutLE64(out, col->GetNumberOfTuples());
    cmp::PutLE64(out,
                 static_cast<std::uint64_t>(col->GetNumberOfComponents()));

    svtkWithHostValues(
      col, [&](const void *data, svtkScalarType st, std::size_t count)
      { cmp::EncodeChunk(data, DTypeOf(st), count, params, out); });
  }
  return out;
}

svtkTable *DeserializeTableCompressed(const std::uint8_t *bytes,
                                     std::size_t size)
{
  if (!bytes || size < 8 || std::memcmp(bytes, kTableMagic, 4) != 0)
    throw std::runtime_error(
      "DeserializeTableCompressed: not a compressed table stream");
  if (bytes[4] != kTableVersion)
    throw std::runtime_error(
      "DeserializeTableCompressed: unsupported stream version");

  std::size_t pos = 8;
  const std::uint64_t nCols = GetU64(bytes, size, pos);

  svtkTable *table = svtkTable::New();
  try
  {
    for (std::uint64_t c = 0; c < nCols; ++c)
    {
      const std::uint64_t nameLen = GetU64(bytes, size, pos);
      if (nameLen > size - pos)
        throw std::runtime_error(
          "DeserializeTableCompressed: truncated name");
      std::string name(reinterpret_cast<const char *>(bytes + pos),
                       static_cast<std::size_t>(nameLen));
      pos += nameLen;

      const std::uint64_t tuples = GetU64(bytes, size, pos);
      const std::uint64_t comps = GetU64(bytes, size, pos);
      if (!comps || comps > INT32_MAX || tuples > UINT64_MAX / comps)
        throw std::runtime_error(
          "DeserializeTableCompressed: implausible column shape");

      const cmp::ChunkInfo info = cmp::PeekHeader(bytes + pos, size - pos);
      if (info.Count != tuples * comps)
        throw std::runtime_error(
          "DeserializeTableCompressed: chunk count does not match the "
          "column shape");

      std::size_t consumed = 0;
      svtkDataArray *col = nullptr;
      switch (info.Type)
      {
        case cmp::DType::U8:
          col = DecodeColumn<unsigned char>(name, info.Count,
                                            static_cast<int>(comps),
                                            bytes + pos, size - pos, consumed);
          break;
        case cmp::DType::I32:
          col = DecodeColumn<int>(name, info.Count, static_cast<int>(comps),
                                  bytes + pos, size - pos, consumed);
          break;
        case cmp::DType::I64:
          col = DecodeColumn<long long>(name, info.Count,
                                        static_cast<int>(comps), bytes + pos,
                                        size - pos, consumed);
          break;
        case cmp::DType::F32:
          col = DecodeColumn<float>(name, info.Count, static_cast<int>(comps),
                                    bytes + pos, size - pos, consumed);
          break;
        case cmp::DType::F64:
          col = DecodeColumn<double>(name, info.Count,
                                     static_cast<int>(comps), bytes + pos,
                                     size - pos, consumed);
          break;
      }
      pos += consumed;

      table->AddColumn(col);
      col->Delete();
    }
  }
  catch (...)
  {
    table->UnRegister();
    throw;
  }
  return table;
}

std::size_t TableValueBytes(const svtkTable *table)
{
  std::size_t bytes = 0;
  for (int c = 0; c < table->GetNumberOfColumns(); ++c)
  {
    const svtkDataArray *col = table->GetColumn(c);
    bytes += static_cast<std::size_t>(col->GetNumberOfTuples()) *
             static_cast<std::size_t>(col->GetNumberOfComponents()) *
             svtkScalarSize(col->GetScalarType());
  }
  return bytes;
}

namespace
{
/// `cols` merged into one host array of T, or null unless every one is a
/// host AOS array of T.
template <typename T>
svtkDataArray *MergeAs(const std::string &name, int comps,
                       const std::vector<const svtkDataArray *> &cols)
{
  std::vector<const svtkAOSDataArray<T> *> typed;
  for (const svtkDataArray *col : cols)
  {
    const auto *t = dynamic_cast<const svtkAOSDataArray<T> *>(col);
    if (!t)
      return nullptr;
    typed.push_back(t);
  }
  auto *merged = svtkAOSDataArray<T>::New(name);
  merged->SetNumberOfComponents(comps);
  for (const svtkAOSDataArray<T> *t : typed)
    merged->GetVector().insert(merged->GetVector().end(),
                               t->GetVector().begin(), t->GetVector().end());
  return merged;
}

/// `cols` merged in their native scalar type when every one is a host
/// AOS array of `type`, and widened to f64 otherwise.
svtkDataArray *Merge(const std::string &name, int comps, svtkScalarType type,
                     const std::vector<const svtkDataArray *> &cols)
{
  svtkDataArray *merged = nullptr;
  switch (type)
  {
    case svtkScalarType::Float32:
      merged = MergeAs<float>(name, comps, cols);
      break;
    case svtkScalarType::Float64:
      merged = MergeAs<double>(name, comps, cols);
      break;
    case svtkScalarType::Int32:
      merged = MergeAs<int>(name, comps, cols);
      break;
    case svtkScalarType::Int64:
      merged = MergeAs<long long>(name, comps, cols);
      break;
    case svtkScalarType::UInt8:
      merged = MergeAs<unsigned char>(name, comps, cols);
      break;
  }
  if (merged)
    return merged;
  svtkAOSDoubleArray *wide = svtkAOSDoubleArray::New(name);
  wide->SetNumberOfComponents(comps);
  for (const svtkDataArray *col : cols)
  {
    const std::vector<double> values = svtkToDoubleVector(col);
    wide->GetVector().insert(wide->GetVector().end(), values.begin(),
                             values.end());
  }
  return wide;
}
} // namespace

svtkTable *ConcatenateTables(const std::vector<svtkTable *> &parts)
{
  svtkTable *out = svtkTable::New();
  if (parts.empty())
    return out;

  const svtkTable *first = parts.front();
  const int nCols = first->GetNumberOfColumns();

  for (int c = 0; c < nCols; ++c)
  {
    const svtkDataArray *proto = first->GetColumn(c);
    std::vector<const svtkDataArray *> cols;
    for (svtkTable *part : parts)
    {
      const svtkDataArray *col =
        part ? part->GetColumnByName(proto->GetName()) : nullptr;
      if (!col || col->GetNumberOfComponents() != proto->GetNumberOfComponents())
      {
        out->UnRegister();
        throw std::runtime_error(
          "ConcatenateTables: schema mismatch for column '" +
          proto->GetName() + "'");
      }
      cols.push_back(col);
    }
    svtkDataArray *merged = Merge(proto->GetName(),
                                  proto->GetNumberOfComponents(),
                                  proto->GetScalarType(), cols);
    out->AddColumn(merged);
    merged->Delete();
  }
  return out;
}

} // namespace sensei
