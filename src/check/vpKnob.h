#ifndef vpKnob_h
#define vpKnob_h

/// @file vpKnob.h
/// One descriptor per configuration knob. A Row names a knob's XML
/// element and attribute, its environment variable, its type, its valid
/// range and enum spellings, and reaches into the config struct it sets.
/// Each subsystem declares its rows beside its config struct; everything
/// else is derived from them: ConfigurableAnalysis parsing, the env
/// seeding of each DefaultConfig(), validation messages, and the tuner's
/// knob accessors, XML emission and parsing. Header-only, so the lowest
/// libraries (check, exec, layout) can use it without linking anything.
///
/// The merge rule (Table::Merge): the variable beats the attribute, and
/// the attribute beats the current value. XML and the environment share
/// one parser, so they accept the same spellings; an empty variable
/// counts as unset. Text that does not parse or is out of range throws
/// std::runtime_error naming `<element attribute="...">` or
/// `VARIABLE="..."`.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace vp
{
namespace knob
{

/// One element's attributes (sxml::Element::Attributes()).
using Attrs = std::map<std::string, std::string>;

enum class Type : int
{
  Bool, ///< 0/1/on/off/true/false/yes/no, any case
  Int,  ///< a base-10 integer in [Min, Max]
  Real, ///< a finite number in [Min, Max]
  Enum  ///< one of the row's spellings
};

/// An enum spelling; the first spelling of a value is its canonical one.
struct Spelling
{
  const char *Text;
  int Value;
};
using Spellings = std::vector<Spelling>;

constexpr double kMaxInt = 9007199254740992.0; ///< 2^53, exact as a double
constexpr double kMaxInt32 = 2147483647.0;
constexpr double kInf = HUGE_VAL;

/// The value `text` spells, or -1.
inline int Lookup(const Spellings &names, const std::string &text)
{
  for (const Spelling &s : names)
    if (text == s.Text)
      return s.Value;
  return -1;
}

/// The value `text` spells; throws std::invalid_argument("<what> 'text'").
template <class E>
E FromName(const Spellings &names, const std::string &text,
           const std::string &what)
{
  const int v = Lookup(names, text);
  if (v < 0)
    throw std::invalid_argument(what + " '" + text + "'");
  return static_cast<E>(v);
}

/// The canonical spelling of `value`.
inline const char *NameOf(const Spellings &names, int value)
{
  for (const Spelling &s : names)
    if (s.Value == value)
      return s.Text;
  return "unknown";
}

/// The fewest digits that parse back to `v` (as sxml writes doubles).
inline std::string FormatReal(double v)
{
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec)
    if (std::snprintf(buf, sizeof(buf), "%.*g", prec, v) > 0 &&
        std::strtod(buf, nullptr) == v)
      break;
  return buf;
}

/// The bool `text` spells (0/1/on/off/true/false/yes/no, any case);
/// throws std::invalid_argument saying what was expected.
inline bool ParseBool(const std::string &text)
{
  std::string t;
  for (char c : text)
    t += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (t == "1" || t == "on" || t == "true" || t == "yes")
    return true;
  if (t == "0" || t == "off" || t == "false" || t == "no")
    return false;
  throw std::invalid_argument("expected 0/1/on/off/true/false/yes/no");
}

/// The number `text` spells, base 10 when `integer`, in [min, max];
/// throws std::invalid_argument saying what was expected.
inline double ParseNumber(const std::string &text, bool integer, double min,
                          double max)
{
  char *end = nullptr;
  errno = 0;
  const double v =
    integer ? static_cast<double>(std::strtoll(text.c_str(), &end, 10))
            : std::strtod(text.c_str(), &end);
  if (text.empty() || *end || errno == ERANGE || !std::isfinite(v) ||
      !(v >= min && v <= max))
    throw std::invalid_argument(
      std::string(integer ? "expected an integer" : "expected a number") +
      " in [" + FormatReal(min) + ", " + FormatReal(max) + "]");
  return v;
}

/// Field<&A::b, &B::c> reads and writes `a.b.c` as a double.
template <class M>
struct MemberOf;
template <class C, class T>
struct MemberOf<T C::*>
{
  using Class = C;
};

template <auto First, auto... Rest>
struct Field
{
  using Class = typename MemberOf<decltype(First)>::Class;

  static double Get(const Class &c)
  {
    const auto v = ((c.*First) .* ... .* Rest);
    if constexpr (std::is_enum_v<decltype(v)>)
      return static_cast<int>(v);
    else
      return static_cast<double>(v);
  }

  static void Set(Class &c, double v)
  {
    auto &f = ((c.*First) .* ... .* Rest);
    using T = std::remove_reference_t<decltype(f)>;
    if constexpr (std::is_same_v<T, bool>)
      f = v != 0.0;
    else if constexpr (std::is_enum_v<T>)
      f = static_cast<T>(static_cast<int>(v));
    else
      f = static_cast<T>(v);
  }
};

/// One knob of config struct `Cfg`.
template <class Cfg>
struct Row
{
  const char *Element = nullptr;   ///< e.g. "exec"
  const char *Attribute = nullptr; ///< e.g. "threads"
  const char *Env = nullptr;       ///< e.g. VP_EXEC_THREADS, or nullptr
  Type Kind = Type::Int;
  double Min = 0.0, Max = 0.0; ///< Int, Real
  const Spellings *Names = nullptr; ///< Enum
  double (*Get)(const Cfg &) = nullptr;
  void (*Set)(Cfg &, double) = nullptr;
  /// The text a present element without the attribute means (a bare
  /// `<check/>` is enabled="1").
  const char *Implied = nullptr;
  /// A hand parser for what the type cannot spell (a service codec also
  /// marks its override set); throws std::invalid_argument.
  void (*Parse)(Cfg &, const std::string &) = nullptr;
  /// Emit the row only while this holds (an unset override has no value).
  bool (*Present)(const Cfg &) = nullptr;

  Row &Implies(const char *t)
  {
    this->Implied = t;
    return *this;
  }
  Row &Parses(void (*f)(Cfg &, const std::string &))
  {
    this->Parse = f;
    return *this;
  }
  Row &When(bool (*f)(const Cfg &))
  {
    this->Present = f;
    return *this;
  }

  /// "element.attribute", the key the tuner's domains use.
  std::string Name() const
  {
    return std::string(this->Element) + '.' + this->Attribute;
  }
  bool IsPresent(const Cfg &c) const
  {
    return !this->Present || this->Present(c);
  }

  /// The value `text` spells; throws std::invalid_argument saying what
  /// was expected.
  double Value(const std::string &text) const
  {
    if (this->Kind == Type::Bool)
      return ParseBool(text) ? 1.0 : 0.0;
    if (this->Kind == Type::Enum)
    {
      const int v = Lookup(*this->Names, text);
      if (v >= 0)
        return v;
      std::string all;
      for (const Spelling &s : *this->Names)
        all += (all.empty() ? "" : " | ") + std::string(s.Text);
      throw std::invalid_argument("expected " + all);
    }
    return ParseNumber(text, this->Kind == Type::Int, this->Min, this->Max);
  }

  /// Canonical text of `v`: what the tuner emits.
  std::string Text(double v) const
  {
    switch (this->Kind)
    {
      case Type::Bool: return v != 0.0 ? "1" : "0";
      case Type::Int: return std::to_string(static_cast<long long>(v));
      case Type::Real: return FormatReal(v);
      case Type::Enum: return NameOf(*this->Names, static_cast<int>(v));
    }
    return std::string();
  }

  /// Set the row from `text`, which came from its variable when
  /// `fromEnv` and from its attribute otherwise (as errors say).
  void Assign(Cfg &c, const std::string &text, bool fromEnv) const
  {
    try
    {
      if (this->Parse)
        this->Parse(c, text);
      else
        this->Set(c, this->Value(text));
    }
    catch (const std::invalid_argument &e)
    {
      const std::string where =
        fromEnv ? std::string(this->Env) + "=\"" + text + '"'
                : std::string("<") + this->Element + ' ' + this->Attribute +
                    "=\"" + text + "\">";
      throw std::runtime_error(where + ": " + e.what());
    }
  }
};

/// The variable's value, or nullptr when it is unset or empty.
inline const char *Getenv(const char *name)
{
  const char *v = name ? std::getenv(name) : nullptr;
  return v && *v ? v : nullptr;
}

/// Row builders, e.g. Int<&ExecConfig::Threads>("exec", "threads", 0,
/// 1024, env); a nested field takes its member path.
template <auto... Path>
Row<typename Field<Path...>::Class>
Make(const char *element, const char *attribute, Type kind, double min,
     double max, const Spellings *names, const char *env)
{
  return {element, attribute, env, kind, min, max, names,
          &Field<Path...>::Get, &Field<Path...>::Set};
}
template <auto... Path>
auto Bool(const char *element, const char *attribute, const char *env = nullptr)
{
  return Make<Path...>(element, attribute, Type::Bool, 0, 1, nullptr, env);
}
template <auto... Path>
auto Int(const char *element, const char *attribute, double min, double max,
         const char *env = nullptr)
{
  return Make<Path...>(element, attribute, Type::Int, min, max, nullptr, env);
}
template <auto... Path>
auto Real(const char *element, const char *attribute, double min, double max,
          const char *env = nullptr)
{
  return Make<Path...>(element, attribute, Type::Real, min, max, nullptr, env);
}
template <auto... Path>
auto Enum(const char *element, const char *attribute, const Spellings &names,
          const char *env = nullptr)
{
  return Make<Path...>(element, attribute, Type::Enum, 0, 0, &names, env);
}

/// The rows of one config struct, in the order they apply.
template <class Cfg>
class Table : public std::vector<Row<Cfg>>
{
public:
  using std::vector<Row<Cfg>>::vector;

  /// The struct's defaults with the variables applied: DefaultConfig().
  Cfg Defaults() const
  {
    Cfg c{};
    this->Merge(c, [](const char *) -> const Attrs * { return nullptr; });
    return c;
  }

  /// True when one of the rows' elements is present (`attrsOf(element)`
  /// returns its attributes, or nullptr) or one of their variables is set.
  template <class F>
  bool Touched(F &&attrsOf) const
  {
    const char *element = "";
    for (const Row<Cfg> &r : *this)
    {
      // rows come grouped by element: look each one up once
      if (std::strcmp(r.Element, element) != 0 && attrsOf(r.Element))
        return true;
      element = r.Element;
      if (Getenv(r.Env))
        return true;
    }
    return false;
  }

  /// The merge rule: each attribute present overrides `c`, then each
  /// variable set overrides the attributes (unless `env` is false, for a
  /// document read as data).
  template <class F>
  void Merge(Cfg &c, F &&attrsOf, bool env = true) const
  {
    const char *element = "";
    const Attrs *a = nullptr;
    for (const Row<Cfg> &r : *this)
    {
      if (std::strcmp(r.Element, element) != 0)
        a = attrsOf(element = r.Element);
      if (!a)
        continue;
      const auto it = a->find(r.Attribute);
      const char *text = it != a->end() ? it->second.c_str() : r.Implied;
      if (text)
        r.Assign(c, text, false);
    }
    for (const Row<Cfg> &r : *this)
      if (const char *v = env ? Getenv(r.Env) : nullptr)
        r.Assign(c, v, true);
  }

  /// Throw std::invalid_argument naming the first number out of its
  /// row's range: the check each subsystem's Configure makes.
  void Validate(const Cfg &c) const
  {
    for (const Row<Cfg> &r : *this)
      if ((r.Kind == Type::Int || r.Kind == Type::Real) &&
          !(r.Get(c) >= r.Min && r.Get(c) <= r.Max))
        throw std::invalid_argument(r.Name() + " must be in [" +
                                    FormatReal(r.Min) + ", " +
                                    FormatReal(r.Max) + "]");
  }

  /// `emit(row, text)` for each present row, in order.
  template <class F>
  void Emit(const Cfg &c, F &&emit) const
  {
    for (const Row<Cfg> &r : *this)
      if (r.IsPresent(c))
        emit(r, r.Text(r.Get(c)));
  }
};

} // namespace knob
} // namespace vp

#endif
