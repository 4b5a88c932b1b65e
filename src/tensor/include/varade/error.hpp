// Common error type and runtime-check helpers shared by every varade module.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace varade {

/// Exception thrown for all recoverable library errors (bad shapes, malformed
/// files, invalid arguments). Internal invariant violations also throw this so
/// that failure injection in tests never trips undefined behaviour.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws varade::Error with `message` when `condition` is false.
inline void check(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

/// Literal-message form: builds no std::string unless the check fails.
inline void check(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

/// Builds an error message from streamable parts, then throws.
template <typename... Parts>
[[noreturn]] void fail(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  throw Error(os.str());
}

}  // namespace varade
