// Edge-case contracts for the dense Cholesky solver: degenerate inputs must
// come back as error Status, never as a silently NaN/Inf "solution".

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/solve.h"

namespace fairbench {
namespace {

TEST(SolveEdgeTest, CholeskyRejectsIndefinite) {
  // Symmetric but indefinite (one negative eigenvalue).
  const Matrix a = {{1.0, 2.0}, {2.0, 1.0}};
  const Result<Vector> r = CholeskySolve(a, {1.0, 1.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveEdgeTest, CholeskyRejectsNegativeDefinite) {
  const Matrix a = {{-4.0, 0.0}, {0.0, -9.0}};
  const Result<Vector> r = CholeskySolve(a, {1.0, 2.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveEdgeTest, CholeskyRejectsSingular) {
  // Rank-1 Gram matrix: [1 1; 1 1].
  const Matrix a = {{1.0, 1.0}, {1.0, 1.0}};
  const Result<Vector> r = CholeskySolve(a, {1.0, 1.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveEdgeTest, CholeskyRejectsNonFiniteInput) {
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix a = {{1.0, 0.0}, {0.0, inf}};
  const Matrix nan_a = {{std::nan(""), 0.0}, {0.0, 1.0}};
  EXPECT_FALSE(CholeskySolve(a, {1.0, 1.0}).ok());
  EXPECT_FALSE(CholeskySolve(nan_a, {1.0, 1.0}).ok());
}

TEST(SolveEdgeTest, CholeskyRejectsShapeMismatch) {
  const Matrix a = {{4.0, 0.0}, {0.0, 4.0}};
  EXPECT_EQ(CholeskySolve(a, {1.0, 2.0, 3.0}).status().code(),
            StatusCode::kInvalidArgument);
  const Matrix rect(2, 3, 1.0);
  EXPECT_EQ(CholeskySolve(rect, {1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fairbench
