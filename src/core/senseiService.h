#ifndef senseiService_h
#define senseiService_h

/// @file senseiService.h
/// SENSEI glue for the multi-tenant in-transit service (src/svc): the
/// simulation side serializes its mesh with the session's negotiated
/// codec and streams frames through a svc::Client; the analysis side
/// hosts a svc::Server whose worker pool drives one ConfigurableAnalysis
/// chain per worker, so N independent simulations share one analysis
/// deployment. The service layer itself never sees sensei types — only
/// serialized frame payloads cross the transport boundary.
///
/// Data requirements: each tenant's Welcome carries the columns of its
/// mesh that the chain reads (the union of the analyses'
/// GetColumnsRead answers, asked when the Hello is admitted), and the
/// tenant serializes only those. A chain with a back end that reads any
/// column grants every column.

#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "svcClient.h"
#include "svcServer.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace sxml
{
class Element;
}

namespace sensei
{

/// Simulation-side endpoint: one per tenant.
class ServiceClient
{
public:
  /// `port` comes from the host's Connect(); `meshName` is the mesh
  /// each step ships.
  explicit ServiceClient(std::shared_ptr<svc::Port> port,
                         std::string meshName = "table");

  /// Negotiate a session. The requested codec follows the process-wide
  /// cmp::GetConfig() (the `<compress>` element); the server may
  /// override it. Returns false on timeout or rejection.
  bool Connect(double timeoutSeconds = 5.0);

  /// Serialize the named mesh from `data` with the negotiated codec and
  /// ship it as one frame. When the Welcome named the columns the
  /// service reads, only those are serialized, in table order, from a
  /// projection that shares the table's columns. Returns false when the
  /// mesh is unavailable or the session is down.
  bool Send(DataAdaptor *data);

  /// Graceful leave.
  void Close();

  /// Abrupt death (testing: the tenant vanishes mid-run).
  void Crash();

  /// The underlying service client (session id, negotiated grant).
  svc::Client &Raw() { return this->Client_; }

private:
  svc::Client Client_;
  std::string MeshName_;
};

/// Analysis-side deployment: a server whose workers each drive a
/// ConfigurableAnalysis chain built from the same XML document.
class ServiceHost
{
public:
  /// Build from a parsed <sensei> document: the optional <service>
  /// element sizes the pool (via svc::Configure), the <analysis>
  /// elements define the chain each worker runs.
  explicit ServiceHost(const sxml::Element &root);

  /// Convenience: parse `xml` (a document string) first.
  static std::unique_ptr<ServiceHost> FromString(const std::string &xml);

  /// Convenience: parse the file at `path` first.
  static std::unique_ptr<ServiceHost> FromFile(const std::string &path);

  ~ServiceHost();

  ServiceHost(const ServiceHost &) = delete;
  ServiceHost &operator=(const ServiceHost &) = delete;

  /// A new tenant's port (hand it to a ServiceClient).
  std::shared_ptr<svc::Port> Connect() { return this->Server_->Connect(); }

  void Start() { this->Server_->Start(); }

  /// Stop the server and finalize every worker's analysis chain.
  void Stop();

  /// Frames executed across the pool.
  long FramesExecuted() const { return this->Frames_.load(); }

  svc::Server &GetServer() { return *this->Server_; }

  /// Worker `worker`'s analysis chain (borrowed; nullptr when out of
  /// range). Read its results only while no frame executes.
  ConfigurableAnalysis *GetChain(int worker) const;

private:
  void HandleFrame(int worker, const svc::FrameHeader &h,
                   std::vector<std::uint8_t> &&payload);

  std::vector<ConfigurableAnalysis *> Analyses_; ///< one chain per worker
  std::unique_ptr<svc::Server> Server_;
  std::atomic<long> Frames_{0};
  bool Stopped_ = false;
};

} // namespace sensei

#endif
