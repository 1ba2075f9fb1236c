#include "linalg/solve.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace fairbench {
namespace {

TEST(CholeskySolveTest, SolvesSpdSystem) {
  const Matrix a = {{4, 1}, {1, 3}};
  Result<Vector> x = CholeskySolve(a, {1, 2});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  EXPECT_NEAR(4 * (*x)[0] + 1 * (*x)[1], 1.0, 1e-12);
  EXPECT_NEAR(1 * (*x)[0] + 3 * (*x)[1], 2.0, 1e-12);
}

TEST(CholeskySolveTest, RejectsNonSpd) {
  const Matrix a = {{0, 0}, {0, 0}};
  EXPECT_EQ(CholeskySolve(a, {1, 1}).status().code(),
            StatusCode::kFailedPrecondition);
  const Matrix indef = {{1, 2}, {2, 1}};  // Eigenvalues 3 and -1.
  EXPECT_FALSE(CholeskySolve(indef, {1, 1}).ok());
}

TEST(CholeskySolveTest, RejectsShapeMismatch) {
  const Matrix a = {{1, 0}, {0, 1}};
  EXPECT_EQ(CholeskySolve(a, {1, 2, 3}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskySolveTest, RandomSpdSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.UniformInt(6);
    Matrix b(n, n, 0.0);
    for (double& v : b.data()) v = rng.Gaussian();
    // A = B^T B + I is SPD.
    Matrix a = b.Transposed().MatMul(b);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
    Vector rhs(n, 0.0);
    for (double& v : rhs) v = rng.Gaussian();
    Result<Vector> x = CholeskySolve(a, rhs);
    ASSERT_TRUE(x.ok());
    const Vector ax = a.MatVec(x.value());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-9);
  }
}

}  // namespace
}  // namespace fairbench
