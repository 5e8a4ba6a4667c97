// Helpers shared by the command-line tools: qfix_cli, qfix_serve, qfix_load.
#ifndef QFIX_TOOLS_TOOL_COMMON_H_
#define QFIX_TOOLS_TOOL_COMMON_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace qfix {
namespace tools {

/// Slurps `path` into `*out`; false when the file cannot be opened.
inline bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Strict integer flag parsing: the whole token must be a decimal
/// number inside [min, max]. "80x0", "", "abc" and out-of-range values
/// all fail — std::atoi would silently turn each into a wrong
/// configuration (an ephemeral port, zero capacity, Inc_2 for "2x").
inline bool ParseIntFlag(const char* text, long min_value, long max_value,
                         long* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

/// Strict double flag parsing, same contract as ParseIntFlag.
inline bool ParseDoubleFlag(const char* text, double min_value,
                            double max_value, double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

/// ParseIntFlag for the value of `flag`, printing the usage error.
inline bool IntFlag(const std::string& flag, const char* text,
                    long min_value, long max_value, long* out) {
  if (ParseIntFlag(text, min_value, max_value, out)) return true;
  std::fprintf(stderr, "error: %s needs an integer in [%ld, %ld]\n",
               flag.c_str(), min_value, max_value);
  return false;
}

/// ParseDoubleFlag for the value of `flag`, printing the usage error.
inline bool DoubleFlag(const std::string& flag, const char* text,
                       double min_value, double max_value, double* out) {
  if (ParseDoubleFlag(text, min_value, max_value, out)) return true;
  std::fprintf(stderr, "error: %s needs a number in [%g, %g]\n",
               flag.c_str(), min_value, max_value);
  return false;
}

/// Appends the NAME=W value of `flag` (W an integer in [1, 1000000]) to
/// `out`; prints the usage error when the value is malformed.
inline bool TenantWeightFlag(const std::string& flag, const char* text,
                             std::vector<std::pair<std::string, int>>* out) {
  const char* eq = text != nullptr ? std::strchr(text, '=') : nullptr;
  long weight = 0;
  if (eq == nullptr || eq == text ||
      !ParseIntFlag(eq + 1, 1, 1000000, &weight)) {
    std::fprintf(stderr, "error: %s needs NAME=W with W >= 1\n",
                 flag.c_str());
    return false;
  }
  out->emplace_back(std::string(text, eq), static_cast<int>(weight));
  return true;
}

}  // namespace tools
}  // namespace qfix

#endif  // QFIX_TOOLS_TOOL_COMMON_H_
