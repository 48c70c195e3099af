#ifndef cliArgs_h
#define cliArgs_h

/// @file cliArgs.h
/// Numeric command-line arguments of the example and benchmark programs.
/// A value that is not a number of its type throws cli::BadArgument,
/// whose message names the argument; each program's main catches it,
/// prints that one line and exits 2, as for an unknown option.

#include <stdexcept>
#include <string>
#include <type_traits>

namespace cli
{

/// A command-line value that does not parse.
struct BadArgument : std::invalid_argument
{
  using std::invalid_argument::invalid_argument;
};

/// `text`, the value of argument `name`, as an int, long, unsigned long
/// or double, read with std::stoi, std::stol, std::stoul or std::stod.
template <typename T>
T Number(const std::string &name, const std::string &text)
{
  static_assert(std::is_same_v<T, int> || std::is_same_v<T, long> ||
                std::is_same_v<T, unsigned long> ||
                std::is_same_v<T, double>);
  try
  {
    if constexpr (std::is_same_v<T, int>)
      return std::stoi(text);
    else if constexpr (std::is_same_v<T, long>)
      return std::stol(text);
    else if constexpr (std::is_same_v<T, unsigned long>)
      return std::stoul(text);
    else
      return std::stod(text);
  }
  catch (const std::logic_error &) // not a number, or out of range
  {
    throw BadArgument("bad " + name + " '" + text + "'");
  }
}

/// Positional argument `i` as a T, or `fallback` when it is absent.
template <typename T>
T Arg(int argc, char **argv, int i, const std::string &name, T fallback)
{
  return i < argc ? Number<T>(name, argv[i]) : fallback;
}

} // namespace cli

#endif
