#include "senseiService.h"

#include "senseiSerialization.h"
#include "sxml.h"
#include "vpPlatform.h"

#include <algorithm>
#include <stdexcept>

namespace sensei
{

namespace
{
/// The columns of `table` named in `keep`, in table order. The columns
/// are shared by reference: no values are copied.
svtkTable *ProjectColumns(const svtkTable *table,
                          const std::vector<std::string> &keep)
{
  svtkTable *out = svtkTable::New();
  for (int c = 0; c < table->GetNumberOfColumns(); ++c)
  {
    svtkDataArray *col = table->GetColumn(c);
    if (std::find(keep.begin(), keep.end(), col->GetName()) != keep.end())
      out->AddColumn(col);
  }
  return out;
}
} // namespace

// ---------------------------------------------------------------------------
ServiceClient::ServiceClient(std::shared_ptr<svc::Port> port,
                             std::string meshName)
  : Client_(std::move(port), meshName), MeshName_(std::move(meshName))
{
}

bool ServiceClient::Connect(double timeoutSeconds)
{
  const cmp::Config &cfg = cmp::GetConfig();
  return this->Client_.Connect(cfg.Default, cfg.Enabled, timeoutSeconds);
}

bool ServiceClient::Send(DataAdaptor *data)
{
  if (!data)
    throw std::invalid_argument("ServiceClient::Send: null adaptor");

  svtkDataObject *obj = data->GetMesh(this->MeshName_);
  auto *table = dynamic_cast<svtkTable *>(obj);
  if (!table)
  {
    if (obj)
      obj->UnRegister();
    return false;
  }

  // ship only the columns the service's chain reads, when the Welcome
  // named them
  const svc::WelcomeInfo &grant = this->Client_.Negotiated();
  if (grant.Columns)
  {
    svtkTable *shipped = ProjectColumns(table, *grant.Columns);
    table->UnRegister();
    table = shipped;
  }

  const cmp::Params codec =
    grant.UseCompression ? grant.Codec : cmp::Params{cmp::CodecId::None};
  const std::vector<std::uint8_t> payload =
    SerializeTableCompressed(table, codec);
  const std::size_t rawBytes = TableValueBytes(table);
  table->UnRegister();

  // serialization is host memory-bandwidth work the tenant pays for
  vp::Platform &plat = vp::Platform::Get();
  plat.HostCompute(static_cast<double>(payload.size()) /
                   plat.Config().Cost.H2HBandwidth);

  return this->Client_.SendFrame(
    static_cast<std::uint64_t>(data->GetDataTimeStep()), payload.data(),
    payload.size(), rawBytes, grant.UseCompression);
}

void ServiceClient::Close()
{
  this->Client_.Close();
}

void ServiceClient::Crash()
{
  this->Client_.Crash();
}

// ---------------------------------------------------------------------------
ServiceHost::ServiceHost(const sxml::Element &root)
{
  // the first chain parses the whole document, which also applies the
  // <service> element to svc::Configure; the pool is sized from the
  // resulting configuration
  auto *first = ConfigurableAnalysis::New();
  try
  {
    first->Initialize(root);
  }
  catch (...)
  {
    first->UnRegister();
    throw;
  }
  this->Analyses_.push_back(first);

  const svc::ServiceConfig cfg = svc::GetConfig();
  for (int w = 1; w < cfg.Workers; ++w)
  {
    auto *a = ConfigurableAnalysis::New();
    a->Initialize(root);
    this->Analyses_.push_back(a);
  }

  this->Server_ = std::make_unique<svc::Server>(
    [this](int worker, const svc::FrameHeader &h,
           std::vector<std::uint8_t> &&payload)
    { this->HandleFrame(worker, h, std::move(payload)); },
    cfg);
  // every chain is built from the one document, so the first answers
  // for all
  this->Server_->SetColumnGrant([first](const std::string &mesh)
                                { return first->GetColumnsRead(mesh); });
}

std::unique_ptr<ServiceHost> ServiceHost::FromString(const std::string &xml)
{
  const std::unique_ptr<sxml::Element> root = sxml::Parse(xml);
  return std::make_unique<ServiceHost>(*root);
}

std::unique_ptr<ServiceHost> ServiceHost::FromFile(const std::string &path)
{
  const std::unique_ptr<sxml::Element> root = sxml::ParseFile(path);
  return std::make_unique<ServiceHost>(*root);
}

ServiceHost::~ServiceHost()
{
  this->Stop();
  for (ConfigurableAnalysis *a : this->Analyses_)
    a->UnRegister();
  this->Analyses_.clear();
}

void ServiceHost::Stop()
{
  if (this->Stopped_)
    return;
  this->Server_->Stop();
  for (ConfigurableAnalysis *a : this->Analyses_)
    a->Finalize();
  this->Stopped_ = true;
}

ConfigurableAnalysis *ServiceHost::GetChain(int worker) const
{
  if (worker < 0 || worker >= static_cast<int>(this->Analyses_.size()))
    return nullptr;
  return this->Analyses_[static_cast<std::size_t>(worker)];
}

void ServiceHost::HandleFrame(int worker, const svc::FrameHeader &h,
                              std::vector<std::uint8_t> &&payload)
{
  // the dispatcher resolved the session's mesh name when it queued the
  // frame, so a tenant that has since closed still lands on its own mesh
  const std::string mesh = h.Mesh.empty() ? "table" : h.Mesh;

  svtkTable *table =
    DeserializeTableCompressed(payload.data(), payload.size());
  payload.clear();

  TableAdaptor *adaptor = TableAdaptor::New(mesh);
  adaptor->SetTable(table);
  table->UnRegister();
  adaptor->SetDataTimeStep(static_cast<long>(h.Step));

  this->Analyses_[static_cast<std::size_t>(worker)]->Execute(adaptor);
  adaptor->ReleaseData();
  adaptor->Delete();
  this->Frames_.fetch_add(1);
}

} // namespace sensei
