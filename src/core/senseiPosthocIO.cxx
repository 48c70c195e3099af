#include "senseiPosthocIO.h"

#include "senseiSerialization.h"
#include "sio.h"
#include "svtkAOSDataArray.h"
#include "svtkArrayUtils.h"

#include <memory>
#include <sstream>

namespace sensei
{

bool PosthocIO::Execute(DataAdaptor *data)
{
  if (!data)
    return false;

  if (data->GetDataTimeStep() % this->Frequency_ != 0)
    return true;

  svtkSmartPtr<svtkTable> table = GetTable(data, this->MeshName_);
  if (!table)
    return false;

  const int rank =
    data->GetCommunicator() ? data->GetCommunicator()->Rank() : 0;

  const char *ext = this->Format_ == Format::CSV   ? ".csv"
                    : this->Format_ == Format::VTK ? ".vtk"
                                                   : ".sbin";
  std::ostringstream path;
  path << this->Dir_ << '/' << this->Prefix_ << "_r" << rank << "_s"
       << data->GetDataTimeStep() << ext;
  const std::string file = path.str();
  const Format fmt = this->Format_;

  if (fmt == Format::SBIN)
  {
    // serialize + compress now (the encoder charges the caller's clock,
    // like the in transit sender); the closure owns only the encoded
    // bytes, so the async queue meters the compressed size
    const std::size_t raw = TableValueBytes(table.Get());
    auto blob = std::make_shared<std::vector<std::uint8_t>>(
      SerializeTableCompressed(table.Get(), cmp::DefaultRequest()));
    this->Dispatch(data,
                   [blob, file](minimpi::Communicator *)
                   { sio::WriteBlob(file, *blob); },
                   blob->size(), raw);
    ++this->WriteCount_;
    return true;
  }

  // deep copy to host-resident AOS arrays (file IO is a host activity and
  // the copy decouples the write from the simulation's buffers)
  svtkTable *host = svtkTable::New();
  std::size_t bytes = 0;
  for (int c = 0; c < table->GetNumberOfColumns(); ++c)
  {
    svtkDataArray *col = table->GetColumn(c);
    svtkAOSDoubleArray *a = svtkAOSDoubleArray::New(col->GetName());
    a->SetNumberOfComponents(col->GetNumberOfComponents());
    a->GetVector() = svtkToDoubleVector(col);
    bytes += a->GetVector().size() * sizeof(double);
    host->AddColumn(a);
    a->Delete();
  }

  // the closure owns the host copy (the scheduler may discard it without
  // running under a dropping backpressure policy)
  auto held = svtkSmartPtr<svtkTable>::Take(host);
  this->Dispatch(data,
                 [held, file, fmt](minimpi::Communicator *)
                 {
                   if (fmt == Format::CSV)
                     sio::WriteCSV(file, held.Get());
                   else
                     sio::WriteParticlesVTK(file, held.Get());
                 },
                 bytes);
  ++this->WriteCount_;
  return true;
}

} // namespace sensei
