// Checked flag-value parsing shared by the command-line tools
// (arm2gc_party, arm2gc_serve). A numeric flag rejects signs, whitespace,
// trailing characters and out-of-range values rather than wrapping or
// truncating them: `--listen host:70000` is an error, not port 4464, and
// `--shards -1` is an error, not 2^64-1 shards.
//
// Two layers: the parse_* functions return std::nullopt on bad input (unit
// tested), and FlagParser turns a failure into the tool's usage() call,
// which prints the usage text and exits with status 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace arm2gc::cli {

inline constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Parses an unsigned integer no larger than `max`. Base 0 accepts C
/// notation (decimal, 0x-hex, 0-octal); base 10 and 16 accept only that
/// base's digits. The whole string must be consumed.
inline std::optional<std::uint64_t> parse_uint(const std::string& s, std::uint64_t max = kMaxU64,
                                               int base = 0) {
  if (s.empty()) return std::nullopt;
  const auto first = static_cast<unsigned char>(s[0]);
  // strtoull would skip leading whitespace and accept a sign (negating the
  // value modulo 2^64), so the first character must already be a digit.
  if (base == 16 ? std::isxdigit(first) == 0 : std::isdigit(first) == 0) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (errno == ERANGE || end != s.c_str() + s.size() || v > max) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

/// Parses a comma-separated list of 32-bit words (empty items are skipped).
inline std::optional<std::vector<std::uint32_t>> parse_words(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::optional<std::uint64_t> w = parse_uint(item, 0xffffffffu);
    if (!w) return std::nullopt;
    out.push_back(static_cast<std::uint32_t>(*w));
  }
  return out;
}

/// Parses `host:port` (split at the last colon; decimal port 0-65535).
inline std::optional<std::pair<std::string, std::uint16_t>> parse_hostport(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const std::optional<std::uint64_t> port = parse_uint(s.substr(colon + 1), 0xffff, 10);
  if (!port) return std::nullopt;
  return std::make_pair(s.substr(0, colon), static_cast<std::uint16_t>(*port));
}

/// Binds the parse_* functions to a tool's usage(msg), which must print the
/// usage text and exit 2 (it is not expected to return).
class FlagParser {
 public:
  using UsageFn = void (*)(const char*);
  explicit FlagParser(UsageFn usage) : usage_(usage) {}

  [[nodiscard]] std::uint64_t uint(const std::string& flag, const std::string& v,
                                   std::uint64_t max = kMaxU64) const {
    const std::optional<std::uint64_t> n = parse_uint(v, max);
    if (!n) fail(flag + " expects an unsigned integer up to " + std::to_string(max));
    return *n;
  }

  [[nodiscard]] std::vector<std::uint32_t> words(const std::string& flag,
                                                 const std::string& v) const {
    std::optional<std::vector<std::uint32_t>> w = parse_words(v);
    if (!w) fail(flag + " expects comma-separated 32-bit words");
    return std::move(*w);
  }

  [[nodiscard]] std::pair<std::string, std::uint16_t> hostport(const std::string& flag,
                                                               const std::string& v) const {
    std::optional<std::pair<std::string, std::uint16_t>> hp = parse_hostport(v);
    if (!hp) fail(flag + " expects host:port with a port in 0-65535");
    return std::move(*hp);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    usage_(msg.c_str());
    std::abort();  // usage() must not return
  }

  UsageFn usage_;
};

}  // namespace arm2gc::cli
