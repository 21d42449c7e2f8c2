#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "exec/density_matrix_backend.h"
#include "exec/state_vector_backend.h"
#include "test_support.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/metrics.h"

namespace qs {
namespace {

Circuit bell_circuit(int d) {
  Circuit c(QuditSpace::uniform(2, d));
  c.add("F", fourier(d), {0});
  c.add("CSUM", csum(d, d), {0, 1});
  return c;
}

using test_support::final_state;

TEST(Circuit, AddValidatesDimensions) {
  Circuit c(QuditSpace({3, 3}));
  EXPECT_THROW(c.add("X", weyl_x(2), {0}), std::invalid_argument);
  EXPECT_THROW(c.add("X", weyl_x(3), {5}), std::invalid_argument);
  EXPECT_THROW(c.add("XX", csum(3, 3), {0, 0}), std::invalid_argument);
  c.add("X", weyl_x(3), {1});
  EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, RunProducesBellState) {
  const Circuit c = bell_circuit(3);
  const StateVector psi = final_state(c);
  // (|00> + |11> + |22>)/sqrt(3).
  for (int k = 0; k < 3; ++k) {
    const std::size_t idx = c.space().index_of({k, k});
    EXPECT_NEAR(std::abs(psi.amplitude(idx)), 1.0 / std::sqrt(3.0), 1e-12);
  }
}

TEST(Circuit, InverseUndoesCircuit) {
  Rng rng(41);
  Circuit c(QuditSpace({3, 4}));
  c.add("U0", random_unitary(3, rng), {0});
  c.add("U01", random_unitary(12, rng), {0, 1});
  c.add_diagonal("P", {1.0, kI, -1.0, -kI}, {1});
  StateVector psi(c.space(),
                  random_state(static_cast<int>(c.space().dimension()), rng));
  const StateVector original = psi;
  StateVectorBackend::apply(c, psi);
  StateVectorBackend::apply(c.inverse(), psi);
  EXPECT_GT(state_fidelity(psi.amplitudes(), original.amplitudes()),
            1.0 - 1e-10);
}

TEST(Circuit, AppendConcatenates) {
  Circuit a = bell_circuit(3);
  const Circuit b = bell_circuit(3);
  a.append(b.inverse());
  const StateVector psi = final_state(a);
  EXPECT_NEAR(std::abs(psi.amplitude(0)), 1.0, 1e-10);
}

TEST(Circuit, AppendRejectsSpaceMismatch) {
  Circuit a = bell_circuit(3);
  const Circuit b = bell_circuit(2);
  EXPECT_THROW(a.append(b), std::invalid_argument);
}

TEST(Circuit, DepthLayering) {
  Circuit c(QuditSpace::uniform(4, 2));
  c.add("X", weyl_x(2), {0});
  c.add("X", weyl_x(2), {1});  // parallel with previous
  c.add("CSUM", csum(2, 2), {0, 1});
  c.add("X", weyl_x(2), {3});  // parallel with CSUM
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, StatsCountsByArity) {
  Circuit c = bell_circuit(3);
  c.add("F", fourier(3), {1});
  const GateStats st = c.stats();
  EXPECT_EQ(st.total, 3u);
  EXPECT_EQ(st.single_site, 2u);
  EXPECT_EQ(st.two_site, 1u);
  EXPECT_EQ(st.by_name.at("F"), 2u);
}

TEST(Circuit, InversePreservesNoiseMultiplicity) {
  Circuit c(QuditSpace({2, 2}));
  c.add("U", csum(2, 2), {0, 1});
  c.set_last_noise_multiplicity(7);
  const Circuit inv = c.inverse();
  EXPECT_EQ(inv.operations()[0].noise_multiplicity, 7);
}

TEST(Circuit, DurationsAccumulate) {
  Circuit c(QuditSpace({2}));
  c.add("X", weyl_x(2), {0}, 1e-6);
  c.add("X", weyl_x(2), {0}, 2e-6);
  EXPECT_NEAR(c.total_duration(), 3e-6, 1e-18);
}

TEST(Circuit, DensityMatrixExecutionMatchesPure) {
  const Circuit c = bell_circuit(3);
  DensityMatrix rho(c.space());
  DensityMatrixBackend::apply(c, rho);
  const StateVector psi = final_state(c);
  EXPECT_NEAR(density_pure_fidelity(rho.matrix(), psi.amplitudes()), 1.0,
              1e-10);
}

TEST(Circuit, CircuitUnitaryMatchesComposition) {
  Rng rng(42);
  Circuit c(QuditSpace({2, 3}));
  const Matrix u0 = random_unitary(2, rng);
  const Matrix u1 = random_unitary(3, rng);
  c.add("U0", u0, {0});
  c.add("U1", u1, {1});
  const Matrix u = circuit_unitary(c);
  const Matrix expect = two_site(u0, u1);
  EXPECT_LT(max_abs_diff(u, expect), 1e-10);
}

TEST(Circuit, CircuitUnitaryGuardsLargeSpaces) {
  const Circuit c = bell_circuit(3);
  EXPECT_THROW(circuit_unitary(c, 4), std::invalid_argument);
}

TEST(Circuit, ToStringListsGates) {
  const Circuit c = bell_circuit(3);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("CSUM"), std::string::npos);
  EXPECT_NE(s.find("depth"), std::string::npos);
}

// ---------------------------------------------------------------------
// Parametric circuits: symbolic slots, binding, structural digests.
// ---------------------------------------------------------------------

/// Qutrit phase family diag(1, e^{i a}, e^{2 i a}).
std::shared_ptr<const ParamGenerator> phase_generator(std::uint64_t tag) {
  return make_diagonal_generator(tag, [](double angle) {
    return std::vector<cplx>{cplx{1.0, 0.0}, std::exp(cplx{0.0, angle}),
                             std::exp(cplx{0.0, 2.0 * angle})};
  });
}

Circuit parametric_pair() {
  Circuit c(QuditSpace({3, 3}));
  c.add("F", fourier(3), {0});
  c.add_parametric("RZ", phase_generator(0xa1), ParamExpr{0, 2.0, 0.5}, {1});
  return c;
}

TEST(ParametricCircuit, BindEvaluatesAffineSlotBitwise) {
  const Circuit c = parametric_pair();
  EXPECT_TRUE(c.parametric());
  EXPECT_EQ(c.num_parameters(), 1u);
  EXPECT_TRUE(c.parameter_values().empty());  // symbolic until bound

  const Circuit bound = c.bind({0.3});
  EXPECT_EQ(bound.parameter_values(), std::vector<double>{0.3});
  // The bound payload is the generator at scale*p + offset, computed by
  // the one fused expression in ParamExpr::evaluate -- bitwise.
  const double angle = 2.0 * 0.3 + 0.5;
  const Operation& op = bound.operations()[1];
  EXPECT_TRUE(op.parametric());  // metadata survives binding
  EXPECT_EQ(op.diag[1], std::exp(cplx{0.0, angle}));
  EXPECT_EQ(op.diag[2], std::exp(cplx{0.0, 2.0 * angle}));
  EXPECT_THROW(c.bind({0.1, 0.2}), std::invalid_argument);
}

TEST(ParametricCircuit, StructuralFingerprintIgnoresBindings) {
  const Circuit c = parametric_pair();
  const Circuit b1 = c.bind({0.3});
  const Circuit b2 = c.bind({0.9});
  // Value digests separate bindings; the structural digest unifies them
  // with each other and with the symbolic circuit (the cache-key
  // contract of the transpile and plan caches).
  EXPECT_NE(fingerprint(b1), fingerprint(b2));
  EXPECT_EQ(structural_fingerprint(b1), structural_fingerprint(b2));
  EXPECT_EQ(structural_fingerprint(b1), structural_fingerprint(c));
  // A different generator family (tag) is a different structure.
  Circuit other(QuditSpace({3, 3}));
  other.add("F", fourier(3), {0});
  other.add_parametric("RZ", phase_generator(0xa2), ParamExpr{0, 2.0, 0.5},
                       {1});
  EXPECT_NE(structural_fingerprint(other), structural_fingerprint(c));
  // A different slot (scale/offset) is a different structure too.
  Circuit scaled(QuditSpace({3, 3}));
  scaled.add("F", fourier(3), {0});
  scaled.add_parametric("RZ", phase_generator(0xa1), ParamExpr{0, 1.0, 0.5},
                        {1});
  EXPECT_NE(structural_fingerprint(scaled), structural_fingerprint(c));
  // Non-parametric circuits: both digests coincide.
  const Circuit plain = bell_circuit(3);
  EXPECT_EQ(structural_fingerprint(plain), fingerprint(plain));
}

TEST(ParametricCircuit, InverseRequiresABinding) {
  const Circuit c = parametric_pair();
  EXPECT_THROW(c.inverse(), std::invalid_argument);
  // Bound circuits invert through their materialized payloads.
  const Circuit bound = c.bind({0.7});
  Circuit round_trip = bound;
  round_trip.append(bound.inverse());
  const StateVector psi = final_state(round_trip);
  EXPECT_NEAR(std::abs(psi.amplitude(0)), 1.0, 1e-10);
}

}  // namespace
}  // namespace qs
