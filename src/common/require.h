// Contract checking helpers used across the library.
//
// Per the C++ Core Guidelines (I.5/I.6, E.x) we express preconditions as
// checks that throw standard exception types. These helpers keep call sites
// to a single readable line without resorting to macros.
//
// require/ensure come in two overloads. A string literal binds to the
// `const char*` one, so a passing check costs one branch and builds no
// std::string; a composed message (`"..." + std::to_string(n)`) binds to
// the `const std::string&` one.
#ifndef QS_COMMON_REQUIRE_H
#define QS_COMMON_REQUIRE_H

#include <stdexcept>
#include <string>

namespace qs {

/// Throws std::invalid_argument with `msg` when `cond` is false.
/// Used to validate arguments at public API boundaries.
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Throws std::logic_error with `msg` when `cond` is false.
/// Used for internal invariants that indicate a library bug if violated.
inline void ensure(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(msg);
}
inline void ensure(bool cond, const std::string& msg) {
  if (!cond) throw std::logic_error(msg);
}

/// Unconditionally reports an unreachable/unsupported state.
[[noreturn]] inline void fail(const std::string& msg) {
  throw std::logic_error(msg);
}

}  // namespace qs

#endif  // QS_COMMON_REQUIRE_H
