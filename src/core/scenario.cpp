#include "core/scenario.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "sim/network.hpp"
#include "topo/plane_set.hpp"
#include "topo/wafer_stack.hpp"
#include "trace/placement.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

namespace sldf::core {

namespace {

std::string format_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += sep;
    out += item;
  }
  return out;
}

[[noreturn]] void bad_value(const std::string& key, const std::string& expects,
                            const std::string& value) {
  throw std::invalid_argument("scenario key '" + key + "' expects " +
                              expects + ", got '" + value + "'");
}

long parse_int(const std::string& key, const std::string& text, long lo,
               long hi) {
  long v = 0;
  if (!Cli::parse_long(text, v) || v < lo || v > hi)
    bad_value(key,
              lo == LONG_MIN   ? std::string("an integer")
              : hi == LONG_MAX ? "an integer >= " + std::to_string(lo)
                               : "an integer in [" + std::to_string(lo) +
                                     ", " + std::to_string(hi) + "]",
              text);
  return v;
}

// A typed value: its parser (which enforces the key's range and names the
// key in every error) and its renderer.
template <typename T>
struct Codec {
  std::function<T(const std::string& key, const std::string& text)> parse;
  std::function<std::string(const T&)> render;
};

template <typename T>
constexpr long kLongMax = std::cmp_less(std::numeric_limits<T>::max(), LONG_MAX)
                              ? static_cast<long>(std::numeric_limits<T>::max())
                              : LONG_MAX;

template <typename T>
Codec<T> count(long lo, long hi = kLongMax<T>) {
  return {[lo, hi](const std::string& key, const std::string& text) {
            return static_cast<T>(parse_int(key, text, lo, hi));
          },
          [](const T& v) { return std::to_string(v); }};
}

// A count >= 0 where `auto` (rendered for 0) defers the choice to run time.
template <typename T>
Codec<T> count_or_auto() {
  return {[](const std::string& key, const std::string& text) {
            long v = 0;
            if (text == "auto") return T{0};
            if (!Cli::parse_long(text, v) || v < 0 || v > kLongMax<T>)
              bad_value(key, "a count >= 0 or 'auto'", text);
            return static_cast<T>(v);
          },
          [](const T& v) {
            return v == 0 ? std::string("auto") : std::to_string(v);
          }};
}

Codec<double> number(const char* expects, bool (*ok)(double)) {
  return {[expects, ok](const std::string& key, const std::string& text) {
            double v = 0.0;
            if (!Cli::parse_double(text, v) || !ok(v))
              bad_value(key, expects, text);
            return v;
          },
          [](const double& v) { return format_num(v); }};
}
Codec<double> positive() {
  return number("a finite number > 0",
                [](double v) { return std::isfinite(v) && v > 0.0; });
}
Codec<double> non_negative() {
  return number("a finite number >= 0",
                [](double v) { return std::isfinite(v) && v >= 0.0; });
}
Codec<double> fraction() {
  return number("a fraction in [0, 1]",
                [](double v) { return v >= 0.0 && v <= 1.0; });
}

// Free text; `check` (when given) validates it, throwing its own error.
Codec<std::string> text(void (*check)(const std::string&) = nullptr) {
  return {[check](const std::string&, const std::string& v) {
            if (check) check(v);
            return v;
          },
          [](const std::string& v) { return v; }};
}

// A comma-separated list of `item`s, at least `min_items` of them.
template <typename T>
Codec<std::vector<T>> list(Codec<T> item, std::size_t min_items = 0) {
  return {[item, min_items](const std::string& key, const std::string& text) {
            std::vector<T> out;
            std::stringstream ss(text);
            std::string tok;
            while (std::getline(ss, tok, ',')) {
              tok = Cli::trim(tok);
              if (tok.empty())
                bad_value(key, "a comma-separated list without empty items",
                          text);
              out.push_back(item.parse(key, tok));
            }
            if (out.size() < min_items)
              bad_value(key, "a non-empty comma-separated list", text);
            return out;
          },
          [item](const std::vector<T>& v) {
            std::vector<std::string> items;
            for (const T& x : v) items.push_back(item.render(x));
            return join(items, ",");
          }};
}

// Every enumerator's name, in order: each enum's to_string() returns "?"
// past its last enumerator, and accepts back what it returns.
template <typename E>
std::vector<std::string> enum_names() {
  std::vector<std::string> names;
  for (int i = 0;; ++i) {
    std::string n = to_string(static_cast<E>(i));
    if (n == "?") return names;
    names.push_back(std::move(n));
  }
}

// The reference-table rendering of an enum's names: `a` \| `b`.
template <typename E>
std::string alternatives() {
  return "`" + join(enum_names<E>(), "` \\| `") + "`";
}

template <typename E>
Codec<E> choice(E (*parse)(const std::string&)) {
  return {[parse](const std::string& key, const std::string& text) {
            try {
              return parse(text);
            } catch (const std::invalid_argument&) {
              bad_value(key, "one of " + join(enum_names<E>(), "|"), text);
            }
          },
          [](const E& v) { return std::string(to_string(v)); }};
}

const ScenarioSpec& defaults() {
  static const ScenarioSpec d;
  return d;
}

// A table entry's behaviour, before its name and meaning are attached.
struct Binding {
  std::string def;
  decltype(ScenarioKey::parse) parse;
  decltype(ScenarioKey::show) show;
};

// When to_kv() writes a plain key: always, or only when the spec's value
// differs from the default spec's. A gate, when given, must also hold.
enum class Emit { Always, IfSet };
using Gate = bool (*)(const ScenarioSpec&);

template <typename T, typename Get>
Binding bind(Get get, Codec<T> c, Emit emit, Gate gate) {
  return {c.render(get(defaults())),
          [get, parse = c.parse](ScenarioSpec& s, const std::string& key,
                                 const std::string& value) {
            get(s) = parse(key, value);
          },
          [get, render = c.render, emit, gate](
              const ScenarioSpec& s, const std::string& name, KvMap& kv) {
            if (gate != nullptr && !gate(s)) return;
            if (emit == Emit::IfSet && get(s) == get(defaults())) return;
            kv[name] = render(get(s));
          }};
}

template <typename T>
Binding field(T ScenarioSpec::*m, Codec<T> c, Emit emit = Emit::Always,
              Gate gate = nullptr) {
  return bind([m](auto& s) -> auto& { return s.*m; }, c, emit, gate);
}

template <typename O, typename T>
Binding field(O ScenarioSpec::*o, T O::*m, Codec<T> c,
              Emit emit = Emit::Always, Gate gate = nullptr) {
  return bind([o, m](auto& s) -> auto& { return (s.*o).*m; }, c, emit, gate);
}

// The variable part of a family key: everything after its first '.'.
std::string suffix(const std::string& key) {
  return key.substr(key.find('.') + 1);
}

// A family name with its placeholders filled in: `tenant<i>.<opt>` with
// index 2 and sub `kib` is `tenant2.kib`.
std::string instantiate(std::string name, const std::string& index,
                        const std::string& sub) {
  if (const auto i = name.find("<i>"); i != std::string::npos)
    name.replace(i, 3, index);
  const auto lt = name.find('<');
  return lt == std::string::npos ? name : name.substr(0, lt) + sub;
}

// Whether `key` is an instance of table name `name`: a plain name matches
// itself; in a family, `<i>` matches a decimal index and a trailing `<...>`
// any non-empty remainder.
bool matches(std::string_view name, std::string_view key) {
  const auto lt = name.find('<');
  if (lt == std::string_view::npos) return name == key;
  if (key.substr(0, lt) != name.substr(0, lt)) return false;
  name.remove_prefix(lt);
  key.remove_prefix(lt);
  if (!name.starts_with("<i>")) return !key.empty();
  std::size_t digits = 0;
  while (digits < key.size() && key[digits] >= '0' && key[digits] <= '9')
    ++digits;
  return digits > 0 && matches(name.substr(3), key.substr(digits));
}

// `topo.<param>`-style families: a pass-through option map.
Binding options(KvMap ScenarioSpec::*m) {
  return {"",
          [m](ScenarioSpec& s, const std::string& key,
              const std::string& value) { (s.*m)[suffix(key)] = value; },
          [m](const ScenarioSpec& s, const std::string& name, KvMap& kv) {
            for (const auto& [k, v] : s.*m) kv[instantiate(name, "", k)] = v;
          }};
}

// The tenant a `tenant<i>.*` key addresses. The tenant vector grows on
// demand, so keys apply in any order (KvMap iteration delivers tenant0.*
// before the `tenants` count).
ScenarioSpec::TenantKeys& tenant_of(ScenarioSpec& s, const std::string& key) {
  const auto dot = key.find('.');
  auto begin = dot;
  while (begin > 0 && key[begin - 1] >= '0' && key[begin - 1] <= '9') --begin;
  const auto i = static_cast<std::size_t>(
      parse_int(key, key.substr(begin, dot - begin), 0, 63));
  if (s.tenant.size() <= i) s.tenant.resize(i + 1);
  return s.tenant[i];
}

Binding tenant_field(std::string ScenarioSpec::TenantKeys::*m) {
  return {"",
          [m](ScenarioSpec& s, const std::string& key,
              const std::string& value) { tenant_of(s, key).*m = value; },
          [m](const ScenarioSpec& s, const std::string& name, KvMap& kv) {
            for (std::size_t i = 0; i < s.tenant.size(); ++i)
              if (!(s.tenant[i].*m).empty())
                kv[instantiate(name, std::to_string(i), "")] = s.tenant[i].*m;
          }};
}

Binding tenant_options() {
  return {"",
          [](ScenarioSpec& s, const std::string& key,
             const std::string& value) {
            tenant_of(s, key).opts[suffix(key)] = value;
          },
          [](const ScenarioSpec& s, const std::string& name, KvMap& kv) {
            for (std::size_t i = 0; i < s.tenant.size(); ++i)
              for (const auto& [k, v] : s.tenant[i].opts)
                kv[instantiate(name, std::to_string(i), k)] = v;
          }};
}

// `wafer.width`: a token fraction `N/D`, or a plain integer multiplier.
std::string width_text(int num, int den) {
  return den == 1 ? std::to_string(num)
                  : std::to_string(num) + "/" + std::to_string(den);
}

Binding wafer_width() {
  return {width_text(defaults().wafer_width_num, defaults().wafer_width_den),
          [](ScenarioSpec& s, const std::string& key,
             const std::string& value) {
            long num = 0, den = 1;
            const auto slash = value.find('/');
            const bool ok =
                slash == std::string::npos
                    ? Cli::parse_long(value, num)
                    : Cli::parse_long(value.substr(0, slash), num) &&
                          Cli::parse_long(value.substr(slash + 1), den);
            if (!ok || num < 1 || den < 1 || num > INT_MAX || den > INT_MAX)
              bad_value(key, "a positive width `N` or fraction `N/D`", value);
            s.wafer_width_num = static_cast<int>(num);
            s.wafer_width_den = static_cast<int>(den);
          },
          [](const ScenarioSpec& s, const std::string& name, KvMap& kv) {
            const ScenarioSpec& d = defaults();
            if (s.wafer_count > 0 && (s.wafer_width_num != d.wafer_width_num ||
                                      s.wafer_width_den != d.wafer_width_den))
              kv[name] = width_text(s.wafer_width_num, s.wafer_width_den);
          }};
}

ScenarioKey entry(std::string name, std::string meaning, Binding b,
                  std::string def = "") {
  return {std::move(name), std::move(meaning),
          def.empty() ? std::move(b.def) : std::move(def), std::move(b.parse),
          std::move(b.show)};
}

const ScenarioKey* find_key(const std::string& key) {
  for (const ScenarioKey& k : scenario_keys())
    if (matches(k.name, key)) return &k;
  return nullptr;
}

}  // namespace

const std::vector<ScenarioKey>& scenario_keys() {
  // Defaults render from ScenarioSpec{} unless an entry names a sentinel
  // ("unset") the value alone cannot say. Within a family, specific names
  // precede the catch-all `<opt>`: the first matching entry wins.
  using S = ScenarioSpec;
  using Sim = sim::SimConfig;
  using Fault = topo::FaultSpec;
  using enum Emit;
  static const std::vector<ScenarioKey> table = [] {
    const Gate sweep_by_count = [](const S& s) { return s.rates.empty(); };
    const Gate planes = [](const S& s) { return s.plane_count > 0; };
    const Gate wafers = [](const S& s) { return s.wafer_count > 0; };
    const auto flag = count<bool>(0, 1);
    // Seeds keep their historical parse: any integer, taken modulo 2^64.
    const auto seed = count<std::uint64_t>(LONG_MIN);
    return std::vector<ScenarioKey>{
        entry("label", "Series label in tables/CSV", field(&S::label, text())),
        entry("topology", "Topology registry name (see Topologies)",
              field(&S::topology, text())),
        entry("topo.<param>",
              "Topology parameter override, e.g. `topo.g = 15` (see "
              "Topologies)",
              options(&S::topo), "preset values"),
        entry("mode", "Routing: " + alternatives<route::RouteMode>(),
              field(&S::mode, choice(route::parse_route_mode))),
        entry("scheme", "VC scheme: " + alternatives<route::VcScheme>(),
              field(&S::scheme, choice(route::parse_vc_scheme))),
        entry("traffic", "Traffic registry name (see Traffic patterns)",
              field(&S::traffic, text())),
        entry("traffic.<opt>",
              "Traffic pattern option, e.g. `traffic.scope = wgroup` (see "
              "Traffic patterns)",
              options(&S::traffic_opts), "pattern defaults"),
        entry("workload",
              "Workload registry name; switches to one closed-loop "
              "message-level run (see Workloads)",
              field(&S::workload, text(), IfSet), "unset (rate sweep)"),
        entry("workload.<opt>",
              "Workload generator/runner option, e.g. `workload.kib = 64` "
              "(see Workloads)",
              options(&S::workload_opts), "workload defaults"),
        entry("rates", "Explicit offered loads, comma-separated (rate sweeps)",
              field(&S::rates, list(positive()), IfSet), "unset"),
        entry("max_rate", "With `points`, linspace(0, max] when `rates` is unset",
              field(&S::max_rate, positive(), Always, sweep_by_count)),
        entry("points", "Sweep points when `rates` is unset",
              field(&S::points, count<int>(1), Always, sweep_by_count)),
        entry("stop_factor",
              "Early-stop when latency exceeds this x zero-load latency",
              field(&S::stop_latency_factor, non_negative())),
        entry("threads",
              "Sweep-point parallelism within one series (`auto`/0 = "
              "hardware)",
              field(&S::threads, count_or_auto<unsigned>())),
        entry("shards",
              "Intra-simulation engine shards — N threads per simulation, "
              "bit-identical results for every N (`auto`/0 = `SLDF_SHARDS` "
              "env or 1)",
              field(&S::sim, &Sim::shards, count_or_auto<int>())),
        entry("warmup", "Warmup cycles (Table IV: 5000)",
              field(&S::sim, &Sim::warmup, count<Cycle>(0))),
        entry("measure", "Measured cycles (Table IV: 10000)",
              field(&S::sim, &Sim::measure, count<Cycle>(1))),
        entry("drain", "Extra cycles to let measured packets land",
              field(&S::sim, &Sim::drain, count<Cycle>(0))),
        entry("pkt_len", "Flits per packet",
              field(&S::sim, &Sim::pkt_len, count<int>(1, 65535))),
        entry("seed", "Base RNG seed", field(&S::sim, &Sim::seed, seed)),
        entry("max_src_queue", "Per-node source-queue cap (packets)",
              field(&S::sim, &Sim::max_src_queue, count<int>(1))),
        entry("fault.rate",
              "Fraction of candidate cables to fail (deterministic, seeded; "
              "see Resilience)",
              field(&S::fault, &Fault::rate, fraction(), IfSet)),
        entry("fault.kind",
              "Failed-link class: " + alternatives<topo::FaultKind>(),
              field(&S::fault, &Fault::kind, choice(topo::parse_fault_kind),
                    IfSet)),
        entry("fault.seed", "Fault-set RNG seed (independent of `seed`)",
              field(&S::fault, &Fault::seed, seed, IfSet)),
        entry("fault.chips", "Chips to fail entirely, comma-separated ids",
              field(&S::fault, &Fault::chips, list(count<ChipId>(0)), IfSet),
              "unset"),
        entry("fault.events",
              "Online fault timeline, `fail|repair@<cycle>:<kind>=<rate>` or "
              "`...:chip<N>`, `;`-separated (see Resilience)",
              // Parsed now so a malformed timeline fails at config-read time
              // with the typed FaultError; build_network() re-resolves the
              // kept string against the finalized network.
              field(&S::fault, &Fault::events,
                    text([](const std::string& v) {
                      topo::parse_fault_events(v);
                    }),
                    IfSet),
              "unset"),
        entry("fault.schedule",
              "Fault-timeline file (`sldf-faults 1` format); exclusive with "
              "`fault.events`",
              field(&S::fault, &Fault::schedule, text(), IfSet), "unset"),
        entry("fault.rescue",
              "Retransmit packets torn by an online failure (`0`: drop and "
              "count them)",
              field(&S::fault, &Fault::rescue, flag, IfSet)),
        entry("fault.plane",
              "Restrict cable failures to one plane of a multi-plane fabric "
              "(`-1` = all planes; `fault.chips` always spans planes)",
              field(&S::fault, &Fault::plane, count<int>(-1), IfSet),
              "-1 (all planes)"),
        entry("plane.count",
              "Independent fabric planes (rails) sharing the logical chips; "
              "packets pick a plane at injection (see Multi-plane fabrics)",
              field(&S::plane_count, count<int>(1), IfSet),
              "unset (classic single-fabric build)"),
        entry("plane.mix",
              "Per-plane topology registry names, comma-separated (length = "
              "`plane.count`)",
              field(&S::plane_mix, list(text(), 1), IfSet, planes),
              "`plane.count` copies of `topology`"),
        entry("plane.policy",
              "Plane selection: " + alternatives<route::PlanePolicy>(),
              field(&S::plane_policy, choice(route::parse_plane_policy),
                    Always, planes)),
        entry("wafer.count",
              "Wafer-on-wafer stack depth: that many copies of `topology` "
              "bonded by vertical inter-wafer cables, one vertical hop max "
              "(see Wafer stacks)",
              field(&S::wafer_count, count<int>(1), IfSet),
              "unset (classic single-fabric build)"),
        entry("wafer.latency", "Vertical-bond channel latency, cycles",
              field(&S::wafer_latency, count<int>(1, 255), IfSet, wafers)),
        entry("wafer.width",
              "Vertical-bond token width, `N` or fraction `N/D` of a flit per "
              "cycle",
              wafer_width()),
        entry("tenants",
              "Concurrent tenant jobs; > 0 switches to one shared "
              "multi-tenant serving run (see Multi-tenancy)",
              field(&S::tenants, count<int>(0), IfSet), "0 (single job)"),
        entry("tenants.isolation",
              "Also run each tenant alone on its placement and report the "
              "interference ratio (`0` disables the baselines)",
              field(&S::tenants_isolation, flag, IfSet)),
        entry("tenant<i>.workload",
              "Tenant i's workload registry name (required for each tenant)",
              tenant_field(&S::TenantKeys::workload), "unset"),
        entry("tenant<i>.placement",
              "Tenant i's chip placement: " +
                  alternatives<trace::PlacementPolicy>(),
              tenant_field(&S::TenantKeys::placement), "contiguous"),
        entry("tenant<i>.chips",
              "Tenant i's chips: a count to allocate, or explicit "
              "comma-separated ids",
              tenant_field(&S::TenantKeys::chips), "unset"),
        entry("tenant<i>.<opt>",
              "Workload option for tenant i, e.g. `tenant0.kib = 64` (see "
              "Workloads)",
              tenant_options(), "workload defaults"),
        entry("trace.file",
              "Trace file the `trace-replay` workload replays (see "
              "Multi-tenancy)",
              field(&S::trace_file, text(), IfSet), "unset"),
        entry("trace.seed",
              "Seed for synthesized `request-reply` arrivals (independent of "
              "`seed`)",
              field(&S::trace_seed, seed, IfSet)),
    };
  }();
  return table;
}

bool is_scenario_key(const std::string& key) {
  return find_key(key) != nullptr;
}

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  const ScenarioKey* k = find_key(key);
  if (k == nullptr)
    throw std::invalid_argument("unknown scenario key '" + key + "'");
  k->parse(*this, key, value);
}

KvMap ScenarioSpec::to_kv() const {
  KvMap kv;
  for (const ScenarioKey& k : scenario_keys()) k.show(*this, k.name, kv);
  return kv;
}

std::string ScenarioSpec::to_config() const {
  std::string out;
  for (const auto& [k, v] : to_kv()) out += k + " = " + v + "\n";
  return out;
}

ScenarioSpec ScenarioSpec::from_kv(const KvMap& kv) {
  ScenarioSpec s;
  for (const auto& [k, v] : kv) s.set(k, v);
  return s;
}

std::vector<double> ScenarioSpec::effective_rates() const {
  if (!rates.empty()) return rates;
  return linspace_rates(max_rate, points);
}

ScenarioSpec spec_from_cli(const Cli& cli, const ScenarioSpec& defaults,
                           std::vector<std::string>* unused) {
  ScenarioSpec s = defaults;
  for (const auto& [key, value] : cli.entries()) {
    if (!is_scenario_key(key)) {
      if (unused) unused->push_back(key);
      continue;
    }
    s.set(key, value);
  }
  return s;
}

std::vector<ScenarioSpec> parse_scenario_text(const std::string& text,
                                              const ScenarioSpec& defaults) {
  ScenarioSpec base = defaults;
  std::vector<ScenarioSpec> series;
  ScenarioSpec* current = &base;
  // Keys already set in the current section (base or one [series]): a
  // repeat within one section is almost always a typo, so it warns (once
  // per key) instead of silently letting the last value win. A series key
  // overriding a base key is the intended layering and stays silent.
  std::set<std::string> seen;
  std::set<std::string> warned;

  std::stringstream ss(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(ss, raw)) {
    ++lineno;
    const std::string line = Cli::trim(raw);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::invalid_argument("scenario file line " +
                                    std::to_string(lineno) +
                                    ": unterminated section header");
      std::string name = Cli::trim(line.substr(1, line.size() - 2));
      if (name.rfind("series", 0) == 0) name = Cli::trim(name.substr(6));
      if (name.empty())
        throw std::invalid_argument("scenario file line " +
                                    std::to_string(lineno) +
                                    ": empty series name");
      series.push_back(base);
      series.back().label = name;
      current = &series.back();
      seen.clear();
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("scenario file line " +
                                  std::to_string(lineno) +
                                  ": expected 'key = value', got '" + line +
                                  "'");
    const std::string key = Cli::trim(line.substr(0, eq));
    const std::string value = Cli::trim(line.substr(eq + 1));
    if (key.empty())
      throw std::invalid_argument("scenario file line " +
                                  std::to_string(lineno) + ": empty key");
    if (!seen.insert(key).second && warned.insert(key).second)
      log_warn("scenario file line %d: key '%s' repeated in this section "
               "(last value wins)",
               lineno, key.c_str());
    try {
      current->set(key, value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario file line " +
                                  std::to_string(lineno) + ": " + e.what());
    }
  }
  if (series.empty()) series.push_back(base);
  return series;
}

std::vector<ScenarioSpec> load_scenario_file(const std::string& path,
                                             const ScenarioSpec& defaults) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("cannot open scenario file: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_scenario_text(ss.str(), defaults);
}

void build_network(sim::Network& net, const ScenarioSpec& spec) {
  if (spec.wafer_count > 0 && spec.plane_count > 0)
    throw std::invalid_argument(
        "scenario sets both wafer.count and plane.count; planes and wafers "
        "are mutually exclusive axes of one network");
  if (spec.wafer_count > 0) {
    // Wafer-on-wafer stack: every wafer wires its own copy of `topology`
    // through the registry, then the WaferStack layer bonds the stack
    // columns and seals the partition. wafer.count = 1 goes through here
    // too — the structural result is bit-identical to the classic path,
    // and tests hold it to that.
    const TopoConfig cfg = spec.topo_config();
    topo::build_wafer_stack(
        net, spec.wafer_count, spec.wafer_latency, spec.wafer_width_num,
        spec.wafer_width_den, [&](int /*wafer*/, sim::Network& n) {
          return TopologyRegistry::instance().wire(spec.topology, n, cfg);
        });
  } else if (spec.plane_count > 0) {
    // Multi-plane build: every plane wires its own rail through the same
    // registry path (plane.mix picks per-plane presets; default = K copies
    // of `topology`), then the PlaneSet layer validates, aggregates, and
    // seals the partition. plane.count = 1 goes through here too — the
    // structural result is bit-identical to the classic path, and tests
    // hold it to that.
    std::vector<std::string> names = spec.plane_mix;
    if (names.empty()) {
      names.assign(static_cast<std::size_t>(spec.plane_count),
                   spec.topology);
    } else if (static_cast<int>(names.size()) != spec.plane_count) {
      throw std::invalid_argument(
          "plane.mix names " + std::to_string(names.size()) +
          " topologies but plane.count is " +
          std::to_string(spec.plane_count));
    }
    const TopoConfig cfg = spec.topo_config();
    topo::build_plane_set(
        net, spec.plane_count, static_cast<int>(spec.plane_policy),
        [&](int plane, sim::Network& n) {
          return TopologyRegistry::instance().wire(
              names[static_cast<std::size_t>(plane)], n, cfg);
        });
  } else {
    TopologyRegistry::instance().build(spec.topology, net,
                                       spec.topo_config());
  }
  if (spec.fault.active()) {
    const topo::FaultReport rep = topo::inject_faults(net, spec.fault);
    log_debug("%s", rep.to_string().c_str());
  }
  if (spec.fault.has_timeline()) {
    if (!spec.fault.events.empty() && !spec.fault.schedule.empty())
      throw topo::FaultError(
          "scenario sets both fault.events and fault.schedule; give the "
          "timeline one way");
    // A timeline over a fault-free cycle-0 state still needs the mask
    // armed: fault steps rewrite live port records at runtime.
    if (!spec.fault.active()) net.enable_fault_mask();
    const topo::FaultTimeline tl =
        !spec.fault.events.empty()
            ? topo::parse_fault_events(spec.fault.events)
            : topo::load_fault_schedule(spec.fault.schedule);
    auto sched = std::make_shared<sim::FaultSchedule>(
        topo::resolve_timeline(net, tl, spec.fault));
    sched->rescue = spec.fault.rescue;
    net.set_fault_schedule(std::move(sched));
    net.capture_fault_baseline();
  }
}

NetFactory net_factory(const ScenarioSpec& spec) {
  return [spec](sim::Network& net) { build_network(net, spec); };
}

TrafficFactory traffic_factory(const ScenarioSpec& spec) {
  const std::string kind = spec.traffic;
  const KvMap opts = spec.traffic_opts;
  return [kind, opts](const sim::Network& net) {
    return traffic::make_pattern(kind, net, opts);
  };
}

SweepSeries run_scenario(const ScenarioSpec& spec) {
  if (!spec.workload.empty())
    throw std::invalid_argument(
        "run_scenario: spec selects workload '" + spec.workload +
        "' — use run_workload_scenario()");
  SweepConfig cfg;
  cfg.rates = spec.effective_rates();
  cfg.base = spec.sim;
  cfg.stop_latency_factor = spec.stop_latency_factor;
  cfg.threads = spec.threads;
  return run_sweep(spec.label, net_factory(spec), traffic_factory(spec), cfg);
}

workload::WorkloadRunConfig workload_run_config(const ScenarioSpec& spec,
                                                KvMap* gen_opts) {
  // Split the option map: runner/reporting keys are consumed here, the
  // rest goes to the generator (which rejects leftovers itself).
  const std::string ctx = spec.workload.empty()
                              ? std::string("workload runner")
                              : "workload '" + spec.workload + "'";
  workload::WorkloadRunConfig rc;
  rc.sim = spec.sim;
  if (gen_opts) *gen_opts = spec.workload_opts;
  KvReader o(spec.workload_opts, ctx);
  rc.flit_bytes = o.get_double("flit_bytes", rc.flit_bytes);
  if (!(rc.flit_bytes > 0.0))
    throw std::invalid_argument(ctx + ": flit_bytes must be > 0");
  rc.freq_ghz = o.get_double("freq_ghz", rc.freq_ghz);
  if (!(rc.freq_ghz > 0.0))
    throw std::invalid_argument(ctx + ": freq_ghz must be > 0");
  if (const std::string* v = o.take("max_cycles")) {
    long mc = 0;
    if (!Cli::parse_long(*v, mc) || mc <= 0)
      throw std::invalid_argument(ctx +
                                  ": option 'max_cycles' expects a "
                                  "positive cycle count, got '" +
                                  *v + "'");
    rc.max_cycles = static_cast<Cycle>(mc);
  }
  if (gen_opts)
    for (const auto& d : workload::runner_option_docs())
      gen_opts->erase(d.key);
  return rc;
}

WorkloadRun run_workload_scenario(const ScenarioSpec& spec) {
  if (spec.workload.empty())
    throw std::invalid_argument(
        "run_workload_scenario: spec has no workload key");

  KvMap gen_opts;
  const workload::WorkloadRunConfig rc = workload_run_config(spec, &gen_opts);

  sim::Network net;
  build_network(net, spec);
  workload::WorkloadEnv env;
  env.flit_bytes = rc.flit_bytes;
  env.trace_file = spec.trace_file;
  env.trace_seed = spec.trace_seed;
  const workload::WorkloadGraph graph =
      workload::make_workload(spec.workload, net, gen_opts, env);

  WorkloadRun run;
  run.label = spec.label;
  run.workload = spec.workload;
  run.result = workload::run_workload(net, graph, rc);
  return run;
}

void print_workload(const WorkloadRun& run) {
  const auto& r = run.result;
  std::printf("# %s (workload=%s)\n", run.label.c_str(),
              run.workload.c_str());
  std::printf("%-7s %-9s %-9s %-10s %-10s %-10s %-9s %-9s\n", "chips",
              "messages", "packets", "flits", "cycles", "GB/s/chip",
              "avg_msg", "completed");
  std::printf("%-7d %-9llu %-9llu %-10llu %-10llu %-10.4f %-9.1f %-9s\n",
              r.chips, static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.packets),
              static_cast<unsigned long long>(r.flits),
              static_cast<unsigned long long>(r.cycles), r.gbps_per_chip,
              r.avg_msg_cycles, r.completed ? "yes" : "no");
  // Phase table, elided in the middle when a collective has many steps.
  const std::size_t n = r.phases.size();
  if (n > 1) {
    std::printf("  %-7s %-10s %-9s %-10s\n", "phase", "complete", "msgs",
                "flits");
    constexpr std::size_t kHead = 6, kTail = 3;
    for (std::size_t i = 0; i < n; ++i) {
      if (n > kHead + kTail + 1 && i == kHead)
        std::printf("  ... %zu more phases ...\n", n - kHead - kTail);
      if (n > kHead + kTail + 1 && i >= kHead && i < n - kTail) continue;
      const auto& ph = r.phases[i];
      std::printf("  %-7zu %-10llu %-9llu %-10llu\n", i,
                  static_cast<unsigned long long>(ph.completed),
                  static_cast<unsigned long long>(ph.messages),
                  static_cast<unsigned long long>(ph.flits));
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

const std::vector<std::string>& workload_csv_header() {
  static const std::vector<std::string> header = {
      "series", "workload",      "chips",          "messages", "packets",
      "flits",  "cycles",        "gbps_per_chip",  "avg_msg_cycles",
      "completed"};
  return header;
}

void append_workload_csv(CsvWriter& csv, const WorkloadRun& run) {
  const auto& r = run.result;
  csv.row(std::vector<std::string>{
      run.label, run.workload, std::to_string(r.chips),
      std::to_string(r.messages), std::to_string(r.packets),
      std::to_string(r.flits), std::to_string(r.cycles),
      CsvWriter::format_num(r.gbps_per_chip),
      CsvWriter::format_num(r.avg_msg_cycles), r.completed ? "1" : "0"});
}

std::vector<SweepSeries> run_scenarios(const std::vector<ScenarioSpec>& specs,
                                       unsigned threads) {
  std::vector<SweepSeries> out(specs.size());
  ThreadPool::parallel_for(specs.size(), threads == 0 ? 1 : threads,
                           [&](std::size_t i) { out[i] = run_scenario(specs[i]); });
  return out;
}

}  // namespace sldf::core
