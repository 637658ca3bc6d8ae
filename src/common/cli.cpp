#include "common/cli.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "common/error.hpp"

namespace rh::common {
namespace {

/// The error every getter throws for a value outside its flag's domain.
CliError bad_value(const std::string& name, const std::string& value,
                   const std::string& expected) {
  return CliError("flag --" + name + " expects " + expected + ", got '" + value + "'");
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) throw CliError("bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      if (key.empty()) throw CliError("malformed flag: " + arg);
      flags_[key] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  query(name);
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name, const std::string& def) const {
  query(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def) const {
  query(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing chars");
    return v;
  } catch (const std::exception&) {
    throw bad_value(name, it->second, "an integer");
  }
}

double CliArgs::get_double(const std::string& name, double def) const {
  query(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing chars");
    return v;
  } catch (const std::exception&) {
    throw bad_value(name, it->second, "a number");
  }
}

std::int64_t CliArgs::get_positive_int(const std::string& name, std::int64_t def) const {
  const std::int64_t v = get_int(name, def);
  if (has(name) && v < 1) throw bad_value(name, get(name, ""), "a positive integer");
  return v;
}

std::int64_t CliArgs::get_int_in(const std::string& name, std::int64_t def, std::int64_t lo,
                                 std::int64_t hi) const {
  const std::int64_t v = get_int(name, def);
  if (has(name) && (v < lo || v > hi)) {
    throw bad_value(name, get(name, ""),
                    "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

double CliArgs::get_positive_double(const std::string& name, double def) const {
  const double v = get_double(name, def);
  if (has(name) && (!std::isfinite(v) || v <= 0.0)) {
    throw bad_value(name, get(name, ""), "a positive finite number");
  }
  return v;
}

double CliArgs::get_fraction(const std::string& name, double def) const {
  const double v = get_double(name, def);
  if (has(name) && (!std::isfinite(v) || v < 0.0 || v > 1.0)) {
    throw bad_value(name, get(name, ""), "a fraction in [0, 1]");
  }
  return v;
}

std::vector<std::string> CliArgs::unqueried_flags() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : flags_) {
    (void)value;
    if (queried_.count(key) == 0) out.push_back(key);
  }
  return out;
}

void CliArgs::query(const std::string& name) const {
  if (queried_.insert(name).second && sealed_) {
    throw std::logic_error("flag --" + name + " is read after the unknown-flag check");
  }
}

void CliArgs::reject_unqueried() {
  std::string unknown;
  for (const auto& flag : unqueried_flags()) unknown += (unknown.empty() ? "--" : ", --") + flag;
  if (!unknown.empty()) throw CliError("unknown flag " + unknown);
  sealed_ = true;
}

int run_main(int argc, const char* const* argv, const std::function<int(CliArgs&)>& body) {
  try {
    CliArgs args(argc, argv);
    return body(args);
  } catch (const std::exception& e) {
    std::cerr << std::filesystem::path(argc > 0 ? argv[0] : "").filename().string() << ": "
              << e.what() << '\n';
    return 1;
  }
}

}  // namespace rh::common
