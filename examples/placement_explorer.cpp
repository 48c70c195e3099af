// placement_explorer: interactive view of the paper's automatic device
// selection rule (Eq. 1),
//
//     d = ((r mod n_u) * s + d_0) mod n_a
//
// Prints the rank -> device map for the placements used in the paper's
// evaluation plus any custom (n_u, s, d_0) triple given on the command
// line, so users can see where their in situ analyses will land before
// writing the XML.
//
// Usage: ./placement_explorer [ranks] [n_a] [n_u s d0]

#include "cliArgs.h"
#include "senseiAnalysisAdaptor.h"

#include <iomanip>
#include <iostream>
#include <string>

namespace
{
/// A concrete adaptor so we can use the base-class placement API.
class Probe : public sensei::AnalysisAdaptor
{
public:
  static Probe *New() { return new Probe; }
  bool Execute(sensei::DataAdaptor *) override { return true; }
};

void PrintMap(const std::string &label, int ranks, int na, int nu, int s,
              int d0)
{
  Probe *p = Probe::New();
  p->SetDevicesToUse(nu);
  p->SetDeviceStride(s);
  p->SetDeviceStart(d0);

  std::cout << std::left << std::setw(34) << label << " | ";
  for (int r = 0; r < ranks; ++r)
  {
    const int d = p->GetPlacementDevice(r, na);
    std::cout << (d == sensei::AnalysisAdaptor::DEVICE_HOST
                    ? std::string("H")
                    : std::to_string(d))
              << (r + 1 < ranks ? " " : "");
  }
  std::cout << "\n";
  p->Delete();
}
} // namespace

// a malformed argument is one line and exit 2
int main(int argc, char **argv)
try
{
  const int ranks = cli::Arg(argc, argv, 1, "ranks", 8);
  const int na = cli::Arg(argc, argv, 2, "n_a", 4);
  const bool custom = argc > 5;
  const int nu = custom ? cli::Number<int>("n_u", argv[3]) : 0;
  const int s = custom ? cli::Number<int>("s", argv[4]) : 0;
  const int d0 = custom ? cli::Number<int>("d0", argv[5]) : 0;

  std::cout << "device assigned per MPI rank (" << ranks << " ranks, n_a="
            << na << " devices/node)\n"
            << "rule: d = ((r mod n_u) * s + d_0) mod n_a\n\n";

  PrintMap("defaults (n_u=n_a, s=1, d0=0)", ranks, na, 0, 1, 0);
  PrintMap("same-device placement", ranks, na, 0, 1, 0);
  PrintMap("1 dedicated (n_u=1, d0=3)", ranks, na, 1, 1, 3);
  PrintMap("2 dedicated (n_u=2, d0=2)", ranks, na, 2, 1, 2);
  PrintMap("strided (n_u=2, s=2)", ranks, na, 2, 2, 0);
  PrintMap("offset round robin (d0=1)", ranks, na, 0, 1, 1);

  if (custom)
  {
    std::cout << "\ncustom:\n";
    PrintMap("custom (n_u=" + std::to_string(nu) + ", s=" + std::to_string(s) +
               ", d0=" + std::to_string(d0) + ")",
             ranks, na, nu, s, d0);
  }

  // host placement for contrast
  Probe *p = Probe::New();
  p->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  std::cout << std::left << std::setw(34) << "host placement (device=\"host\")"
            << " | ";
  for (int r = 0; r < ranks; ++r)
    std::cout << "H ";
  std::cout << "\n";
  p->Delete();

  return 0;
}
catch (const cli::BadArgument &e)
{
  std::cerr << "placement_explorer: " << e.what() << "\n";
  return 2;
}
