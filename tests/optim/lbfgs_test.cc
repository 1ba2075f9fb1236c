#include "lbfgs_oracle.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "optim/gradient_descent.h"

namespace fairbench {
namespace {

TEST(LbfgsTest, MinimizesQuadratic) {
  Objective quadratic = [](const Vector& x, Vector* grad) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = static_cast<double>(i + 1);
      (*grad)[i] = 2.0 * c * x[i];
      v += c * x[i] * x[i];
    }
    return v;
  };
  const OptimResult r = MinimizeLbfgs(quadratic, Vector(10, 5.0));
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0);
  EXPECT_LT(r.grad_norm, 1e-7);  // the default stopping tolerance
  for (double xi : r.x) EXPECT_NEAR(xi, 0.0, 1e-5);
}

TEST(LbfgsTest, SolvesRosenbrockAccurately) {
  Objective rosenbrock = [](const Vector& x, Vector* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*grad)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
  LbfgsOptions options;
  options.max_iterations = 500;
  const OptimResult r = MinimizeLbfgs(rosenbrock, {-1.2, 1.0}, options);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
  EXPECT_LE(r.iterations, options.max_iterations);
  // The classic start overshoots the curved valley: the line search must
  // have rejected at least one trial step along the way.
  EXPECT_GT(r.backtracks, 0);
}

TEST(LbfgsTest, FasterThanGradientDescentOnIllConditioned) {
  // Narrow valley: f = x0^2 + 1000 x1^2.
  Objective f = [](const Vector& x, Vector* grad) {
    (*grad)[0] = 2.0 * x[0];
    (*grad)[1] = 2000.0 * x[1];
    return x[0] * x[0] + 1000.0 * x[1] * x[1];
  };
  LbfgsOptions lo;
  lo.max_iterations = 100;
  const OptimResult lbfgs = MinimizeLbfgs(f, {10.0, 10.0}, lo);
  GradientDescentOptions go;
  go.max_iterations = 100;
  const OptimResult gd = MinimizeGradientDescent(f, {10.0, 10.0}, go);
  EXPECT_LT(lbfgs.value, gd.value);
  EXPECT_LT(lbfgs.value, 1e-8);
}

TEST(LbfgsTest, LogisticLossOnSeparableData) {
  // 1-d logistic regression: y = 1 iff x > 0, with L2 keeping weights
  // finite; the sign of the learned weight must be positive.
  Rng rng(3);
  std::vector<double> xs;
  std::vector<int> ys;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Gaussian();
    xs.push_back(x);
    ys.push_back(x > 0 ? 1 : 0);
  }
  Objective loss = [&](const Vector& w, Vector* grad) {
    double v = 0.5 * 0.01 * w[0] * w[0];
    (*grad)[0] = 0.01 * w[0];
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double z = w[0] * xs[i];
      const double p = 1.0 / (1.0 + std::exp(-z));
      const double zpos = std::max(z, 0.0);
      v += zpos - z * ys[i] + std::log(std::exp(-zpos) + std::exp(z - zpos));
      (*grad)[0] += (p - ys[i]) * xs[i];
    }
    return v;
  };
  const OptimResult r = MinimizeLbfgs(loss, {0.0});
  EXPECT_GT(r.x[0], 1.0);
}

// Fixed-seed convergence-trajectory pins. The two-loop recursion is pure
// Dot/Axpy/Scale on the optimized kernels, so a kernel regression shows
// up here as a changed iteration/backtrack count or final loss rather
// than only as a micro-bench diff. Re-record deliberately (see
// gradient_descent_test.cc) if a kernel change is intentional.
TEST(LbfgsTest, RosenbrockTrajectoryPin) {
  Objective rosenbrock = [](const Vector& x, Vector* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*grad)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
  LbfgsOptions options;
  options.max_iterations = 500;
  const OptimResult r = MinimizeLbfgs(rosenbrock, {-1.2, 1.0}, options);
  EXPECT_EQ(r.iterations, 35);
  EXPECT_EQ(r.backtracks, 27);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 3.6028268547955793e-25, 1e-30);
  EXPECT_NEAR(r.grad_norm, 9.1255891732044114e-12, 1e-17);
}

TEST(LbfgsTest, ScaledQuadraticTrajectoryPin) {
  Objective quadratic = [](const Vector& x, Vector* grad) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = static_cast<double>(i + 1);
      (*grad)[i] = 2.0 * c * x[i];
      v += c * x[i] * x[i];
    }
    return v;
  };
  const OptimResult r = MinimizeLbfgs(quadratic, Vector(10, 5.0));
  EXPECT_EQ(r.iterations, 23);
  EXPECT_EQ(r.backtracks, 6);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 2.488151465292507e-16, 1e-21);
  EXPECT_NEAR(r.grad_norm, 5.7350917013784533e-08, 1e-13);
}

}  // namespace
}  // namespace fairbench
