// The command-line front end of every bench, tool and example: flag parsing
// (--key=value, --key value, and boolean --flag forms), the unknown-flag
// rule, and the one entry point.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rh::common {

/// Parsed command line. Every getter records the flag it asked about, so
/// reject_unqueried() can name the flags nobody read; positional arguments
/// are preserved in order. All parse/validation failures throw CliError (a
/// ConfigError), naming the offending flag and value.
class CliArgs {
public:
  /// Parses argv[1..). Throws CliError on malformed input (e.g. "--=3").
  CliArgs(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or `def` if absent.
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;

  /// Integer value of --name, or `def` if absent. Throws CliError if the
  /// value is present but not an integer.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;

  /// Double value of --name, or `def` if absent. Throws CliError if the
  /// value is present but not a number.
  [[nodiscard]] double get_double(const std::string& name, double def) const;

  // Validated getters for knobs where out-of-domain values would otherwise
  // fail far from the command line (a --jobs=0 campaign hangs planning, a
  // negative fault rate silently never fires, NaN poisons every compare).

  /// Integer that must be >= 1. `def` is returned unchecked when absent.
  [[nodiscard]] std::int64_t get_positive_int(const std::string& name, std::int64_t def) const;

  /// Integer in [lo, hi]: a channel, bank or row index, say, bounded by the
  /// geometry before any device work. `def` is returned unchecked when
  /// absent.
  [[nodiscard]] std::int64_t get_int_in(const std::string& name, std::int64_t def,
                                        std::int64_t lo, std::int64_t hi) const;

  /// Finite double that must be > 0. Rejects NaN and infinities.
  [[nodiscard]] double get_positive_double(const std::string& name, double def) const;

  /// Finite double in [0, 1] (a probability/rate). Rejects NaN, infinities,
  /// negatives, and values above 1.
  [[nodiscard]] double get_fraction(const std::string& name, double def) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen on the command line that the program never queried.
  [[nodiscard]] std::vector<std::string> unqueried_flags() const;

  /// The unknown-flag rule, for once all flags are read and before any
  /// device work: throws CliError naming every flag nobody read, else seals
  /// the arguments. A flag first read after that throws std::logic_error,
  /// given or not, so a misplaced read fails every run.
  void reject_unqueried();

private:
  /// Records that `name` was asked about (throws once sealed, see above).
  void query(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> queried_;
  std::vector<std::string> positional_;
  bool sealed_ = false;
};

/// The one entry point of every bench, tool and example main: parses argv
/// and returns `body`'s exit status. Any exception becomes one
/// "<program>: <message>" line on stderr (program = argv[0]'s file name)
/// and exit status 1.
int run_main(int argc, const char* const* argv, const std::function<int(CliArgs&)>& body);

}  // namespace rh::common
