// Tests for the qudit Clifford tableau module and the 3D lattice
// extension.
#include <gtest/gtest.h>

#include "exec/state_vector_backend.h"
#include "gates/clifford.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/eigen.h"
#include "linalg/metrics.h"
#include "sqed/gauge_model.h"

namespace qs {
namespace {

class CliffordP : public ::testing::TestWithParam<int> {};

TEST_P(CliffordP, IdentityTableauFixesGenerators) {
  const int d = GetParam();
  CliffordTableau t(2, d);
  WeylLabel x1{{1, 0}, {0, 0}};
  EXPECT_EQ(t.apply(x1).x, (std::vector<int>{1, 0}));
  EXPECT_TRUE(t.is_symplectic());
}

TEST_P(CliffordP, FourierTableauMatchesUnitary) {
  const int d = GetParam();
  CliffordTableau t(1, d);
  t.apply_fourier(0);
  EXPECT_TRUE(t.is_symplectic());
  EXPECT_TRUE(t.matches_unitary(fourier(d)));
}

TEST_P(CliffordP, CsumTableauMatchesUnitary) {
  const int d = GetParam();
  CliffordTableau t(2, d);
  t.apply_csum(0, 1);
  EXPECT_TRUE(t.is_symplectic());
  EXPECT_TRUE(t.matches_unitary(csum(d, d)));
}

TEST_P(CliffordP, SwapTableauMatchesUnitary) {
  const int d = GetParam();
  CliffordTableau t(2, d);
  t.apply_swap(0, 1);
  EXPECT_TRUE(t.matches_unitary(swap_gate(d)));
}

TEST_P(CliffordP, CompositionMatchesCircuit) {
  // F(0), CSUM(0,1), F(1): tableau composition must match the dense
  // circuit unitary conjugation action.
  const int d = GetParam();
  CliffordTableau t(2, d);
  t.apply_fourier(0);
  t.apply_csum(0, 1);
  t.apply_fourier(1);
  EXPECT_TRUE(t.is_symplectic());
  Circuit c(QuditSpace::uniform(2, d));
  c.add("F", fourier(d), {0});
  c.add("CSUM", csum(d, d), {0, 1});
  c.add("F", fourier(d), {1});
  EXPECT_TRUE(t.matches_unitary(circuit_unitary(c)));
}

TEST_P(CliffordP, CsumOrderDFromTableau) {
  // Composing CSUM d times returns the identity tableau action.
  const int d = GetParam();
  CliffordTableau t(2, d);
  for (int i = 0; i < d; ++i) t.apply_csum(0, 1);
  WeylLabel x0{{1, 0}, {0, 0}};
  WeylLabel z1{{0, 0}, {0, 1}};
  EXPECT_EQ(t.apply(x0).x, (std::vector<int>{1, 0}));
  EXPECT_EQ(t.apply(x0).z, (std::vector<int>{0, 0}));
  EXPECT_EQ(t.apply(z1).z, (std::vector<int>{0, 1}));
}

TEST_P(CliffordP, ErrorPropagationThroughCsum) {
  // The paper's Clifford-basis motivation: a control-side X error spreads
  // to the target through CSUM (X_c -> X_c X_t), a target-side Z error
  // back-propagates (Z_t -> Z_c^{-1} Z_t).
  const int d = GetParam();
  CliffordTableau t(2, d);
  t.apply_csum(0, 1);
  const WeylLabel xc = propagate_error(t, {{1, 0}, {0, 0}});
  EXPECT_EQ(xc.x, (std::vector<int>{1, 1}));
  const WeylLabel zt = propagate_error(t, {{0, 0}, {0, 1}});
  EXPECT_EQ(zt.z, (std::vector<int>{d - 1, 1}));
}

INSTANTIATE_TEST_SUITE_P(PrimeDims, CliffordP, ::testing::Values(2, 3, 5));

TEST(Clifford, RejectsCompositeDimension) {
  EXPECT_THROW(CliffordTableau(2, 4), std::invalid_argument);
  EXPECT_THROW(CliffordTableau(1, 6), std::invalid_argument);
}

TEST(Clifford, PhaseGateIsSymplectic) {
  CliffordTableau t(1, 3);
  t.apply_phase(0);
  EXPECT_TRUE(t.is_symplectic());
  // X -> XZ under S.
  const WeylLabel img = t.apply({{1}, {0}});
  EXPECT_EQ(img.x, (std::vector<int>{1}));
  EXPECT_EQ(img.z, (std::vector<int>{1}));
}

TEST(Clifford, WeylOperatorPlacement) {
  // X on site 1 of a 2-qutrit register: acting on |00> yields |01>
  // (site 1 digit raised).
  WeylLabel label{{0, 1}, {0, 0}};
  const Matrix w = weyl_operator(label, 3);
  const QuditSpace space = QuditSpace::uniform(2, 3);
  std::vector<cplx> v(9, cplx{0.0, 0.0});
  v[0] = 1.0;
  const auto out = w * v;
  EXPECT_NEAR(std::abs(out[space.index_of({0, 1})] - cplx{1.0, 0.0}), 0.0,
              1e-12);
}

TEST(Clifford, LabelToString) {
  WeylLabel label{{1, 0}, {0, 2}};
  const std::string s = label.to_string();
  EXPECT_NE(s.find("X0"), std::string::npos);
  EXPECT_NE(s.find("Z1"), std::string::npos);
  WeylLabel id{{0, 0}, {0, 0}};
  EXPECT_EQ(id.to_string(), "I");
}

TEST(Lattice3d, EdgeCount) {
  // 2x2x2: 3 directions x 4 edges = 12.
  EXPECT_EQ(grid_edges_3d(2, 2, 2).size(), 12u);
  // Degenerate directions reduce to the 2D ladder.
  EXPECT_EQ(grid_edges_3d(3, 2, 1).size(), grid_edges(3, 2).size());
}

TEST(Lattice3d, HamiltonianIsHermitianAndLocal) {
  const Hamiltonian h = gauge_lattice_3d(2, 2, 2, {2, 1.0, 1.0});
  EXPECT_EQ(h.space().num_sites(), 8u);
  EXPECT_EQ(h.num_terms(), 8u + 12u);
  EXPECT_TRUE(h.dense().is_hermitian(1e-9));
}

TEST(Lattice3d, GroundStateBelowChain) {
  // More bonds -> lower variational ground energy per site than the
  // chain at equal parameters.
  Rng rng(99);
  const Hamiltonian cube = gauge_lattice_3d(2, 2, 2, {2, 1.0, 1.0});
  const Hamiltonian chain = gauge_chain(8, {2, 1.0, 1.0});
  const EigResult e_cube = eigh(cube.dense());
  const EigResult e_chain = eigh(chain.dense());
  EXPECT_LT(e_cube.values[0], e_chain.values[0]);
}

}  // namespace
}  // namespace qs
