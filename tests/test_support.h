// Shared helpers for the test suites (not a test target: the build
// globs tests/test_*.cpp only).
#ifndef QS_TESTS_TEST_SUPPORT_H
#define QS_TESTS_TEST_SUPPORT_H

#include "circuit/circuit.h"
#include "exec/state_vector_backend.h"
#include "qudit/state_vector.h"

namespace qs {
namespace test_support {

/// Final pure state of a circuit run from the vacuum, for tests that
/// assert on amplitudes rather than populations.
inline StateVector final_state(const Circuit& c) {
  StateVector psi(c.space());
  StateVectorBackend::apply(c, psi);
  return psi;
}

}  // namespace test_support
}  // namespace qs

#endif  // QS_TESTS_TEST_SUPPORT_H
