#include "optim/cg_newton.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "lbfgs_oracle.h"

namespace fairbench {
namespace {

/// f = sum (i+1) x_i^2: SPD quadratic with condition number 10.
Objective ScaledQuadratic() {
  return [](const Vector& x, Vector* grad) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = static_cast<double>(i + 1);
      (*grad)[i] = 2.0 * c * x[i];
      v += c * x[i] * x[i];
    }
    return v;
  };
}

HessianVectorProduct ScaledQuadraticHvp() {
  return [](const Vector&, const Vector& v, Vector* hv) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      (*hv)[i] = 2.0 * static_cast<double>(i + 1) * v[i];
    }
  };
}

Objective Rosenbrock() {
  return [](const Vector& x, Vector* grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2.0 * a - 400.0 * x[0] * b;
    (*grad)[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  };
}

/// Exact Rosenbrock Hessian applied to v (indefinite in the valley, so
/// the truncated-CG negative-curvature path gets exercised).
HessianVectorProduct RosenbrockHvp() {
  return [](const Vector& x, const Vector& v, Vector* hv) {
    const double h00 = 2.0 - 400.0 * x[1] + 1200.0 * x[0] * x[0];
    const double h01 = -400.0 * x[0];
    (*hv)[0] = h00 * v[0] + h01 * v[1];
    (*hv)[1] = h01 * v[0] + 200.0 * v[1];
  };
}

/// Small deterministic 2-feature logistic problem with L2, plus its exact
/// Hessian-vector product — the shape CG-Newton exists for.
struct LogisticProblem {
  std::vector<double> x0, x1;
  std::vector<int> y;
  double l2 = 1e-2;
  // Probabilities at the most recent Evaluate point (Hvp cache).
  mutable std::vector<double> p;

  static LogisticProblem Make() {
    LogisticProblem prob;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      const double a = rng.Gaussian();
      const double b = rng.Gaussian();
      prob.x0.push_back(a);
      prob.x1.push_back(b);
      prob.y.push_back(a + 0.5 * b + 0.3 * rng.Gaussian() > 0 ? 1 : 0);
    }
    prob.p.resize(200, 0.0);
    return prob;
  }

  Objective MakeObjective() const {
    return [this](const Vector& t, Vector* grad) {
      double v = 0.0;
      std::fill(grad->begin(), grad->end(), 0.0);
      for (std::size_t i = 0; i < x0.size(); ++i) {
        const double z = t[0] + t[1] * x0[i] + t[2] * x1[i];
        const double pi = 1.0 / (1.0 + std::exp(-std::min(std::max(z, -500.0),
                                                          500.0)));
        p[i] = pi;
        const double zpos = std::max(z, 0.0);
        v += zpos - z * y[i] + std::log(std::exp(-zpos) + std::exp(z - zpos));
        const double g = pi - y[i];
        (*grad)[0] += g;
        (*grad)[1] += g * x0[i];
        (*grad)[2] += g * x1[i];
      }
      for (std::size_t j = 1; j < 3; ++j) {
        v += 0.5 * l2 * t[j] * t[j];
        (*grad)[j] += l2 * t[j];
      }
      return v;
    };
  }

  HessianVectorProduct MakeHvp() const {
    return [this](const Vector&, const Vector& v, Vector* hv) {
      std::fill(hv->begin(), hv->end(), 0.0);
      for (std::size_t i = 0; i < x0.size(); ++i) {
        const double r = p[i] * (1.0 - p[i]);
        const double rv = r * (v[0] + v[1] * x0[i] + v[2] * x1[i]);
        (*hv)[0] += rv;
        (*hv)[1] += rv * x0[i];
        (*hv)[2] += rv * x1[i];
      }
      for (std::size_t j = 1; j < 3; ++j) (*hv)[j] += l2 * v[j];
    };
  }
};

TEST(CgNewtonTest, QuadraticConvergesInFewOuterIterations) {
  // With a near-zero forcing constant the inner CG solve is exact, so this
  // is pure Newton: the first step lands on the quadratic's minimizer and
  // only the convergence check remains.
  CgNewtonOptions exact;
  exact.cg_forcing = 1e-12;
  const OptimResult r = MinimizeCgNewton(ScaledQuadratic(), ScaledQuadraticHvp(),
                                         Vector(10, 5.0), exact);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3);
  EXPECT_EQ(r.backtracks, 0);
  for (double xi : r.x) EXPECT_NEAR(xi, 0.0, 1e-9);

  // The default Eisenstat-Walker schedule truncates the early solves, so
  // it takes more outer iterations but still converges superlinearly.
  const OptimResult inexact =
      MinimizeCgNewton(ScaledQuadratic(), ScaledQuadraticHvp(), Vector(10, 5.0));
  EXPECT_TRUE(inexact.converged);
  EXPECT_LE(inexact.iterations, 20);
}

TEST(CgNewtonTest, SolvesRosenbrockWithExactHessian) {
  CgNewtonOptions options;
  options.max_iterations = 200;
  const OptimResult r =
      MinimizeCgNewton(Rosenbrock(), RosenbrockHvp(), {-1.2, 1.0}, options);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  // The classic start sits in the indefinite region: the damped steps
  // must have backtracked at least once on the way into the valley.
  EXPECT_GT(r.backtracks, 0);
}

TEST(CgNewtonTest, NegativeCurvatureFallsBackAndStillConverges) {
  // f = x^4 - x^2 has f'' < 0 around the start 0.1; the CG inner loop must
  // truncate to steepest descent there yet still reach a minimizer.
  Objective f = [](const Vector& x, Vector* grad) {
    (*grad)[0] = 4.0 * x[0] * x[0] * x[0] - 2.0 * x[0];
    return x[0] * x[0] * x[0] * x[0] - x[0] * x[0];
  };
  HessianVectorProduct hvp = [](const Vector& x, const Vector& v, Vector* hv) {
    (*hv)[0] = (12.0 * x[0] * x[0] - 2.0) * v[0];
  };
  const OptimResult r = MinimizeCgNewton(f, hvp, {0.1});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(std::fabs(r.x[0]), std::sqrt(0.5), 1e-7);
  EXPECT_NEAR(r.value, -0.25, 1e-12);
}

TEST(CgNewtonTest, AgreesWithLbfgsOnLogisticLoss) {
  const LogisticProblem prob = LogisticProblem::Make();
  const OptimResult newton =
      MinimizeCgNewton(prob.MakeObjective(), prob.MakeHvp(), Vector(3, 0.0));
  LbfgsOptions lo;
  lo.max_iterations = 500;
  const OptimResult lbfgs =
      MinimizeLbfgs(prob.MakeObjective(), Vector(3, 0.0), lo);
  EXPECT_TRUE(newton.converged);
  ASSERT_EQ(newton.x.size(), lbfgs.x.size());
  // Both minimize the same strictly convex objective: solutions agree to
  // optimizer tolerance, and second-order convergence must not cost more
  // function evaluations than the quasi-Newton baseline.
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(newton.x[j], lbfgs.x[j], 1e-5) << "component " << j;
  }
  EXPECT_NEAR(newton.value, lbfgs.value, 1e-9);
  EXPECT_LE(newton.iterations, lbfgs.iterations);
}

TEST(CgNewtonTest, HvpOnlyCalledAtLastEvaluationPoint) {
  // The documented caching contract: every Hessian-vector product request
  // happens at the exact point of the most recent objective evaluation.
  Vector last_eval;
  Objective f = [&](const Vector& x, Vector* grad) {
    last_eval = x;
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      (*grad)[i] = 2.0 * x[i];
      v += x[i] * x[i];
    }
    return v;
  };
  HessianVectorProduct hvp = [&](const Vector& x, const Vector& v,
                                 Vector* hv) {
    ASSERT_EQ(x, last_eval) << "Hvp requested away from the cached point";
    for (std::size_t i = 0; i < v.size(); ++i) (*hv)[i] = 2.0 * v[i];
  };
  const OptimResult r = MinimizeCgNewton(f, hvp, Vector(4, 3.0));
  EXPECT_TRUE(r.converged);
}

TEST(CgNewtonTest, PenaltyDriverEnforcesConstraint) {
  // min (x-3)^2 s.t. x <= 1: the penalty rounds must push x to the
  // boundary. Quadratic + hinge^2 penalty has an exact piecewise Hessian.
  double last_active = 0.0;
  PenalizedObjective obj = [&](const Vector& x, Vector* grad, double mu) {
    const double e = std::max(0.0, x[0] - 1.0);
    (*grad)[0] = 2.0 * (x[0] - 3.0) + 2.0 * mu * e;
    last_active = e;
    return (x[0] - 3.0) * (x[0] - 3.0) + mu * e * e;
  };
  PenalizedHessianVectorProduct hvp = [&](const Vector&, const Vector& v,
                                          double mu, Vector* hv) {
    (*hv)[0] = (2.0 + (last_active > 0.0 ? 2.0 * mu : 0.0)) * v[0];
  };
  const OptimResult r = MinimizePenaltyCgNewton(obj, hvp, {0.0});
  // Final mu = 10^6: the penalty solution is within ~2/mu of the boundary.
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_TRUE(r.converged);
}

// Fixed trajectory pins, mirroring the gd/lbfgs pins: the solver is pure
// Dot/Axpy arithmetic over the kernels, so a kernel or solver regression
// shows up as a changed iteration/backtrack count or final loss.
// Re-record deliberately if a change is intentional.
TEST(CgNewtonTest, RosenbrockTrajectoryPin) {
  CgNewtonOptions options;
  options.max_iterations = 200;
  const OptimResult r =
      MinimizeCgNewton(Rosenbrock(), RosenbrockHvp(), {-1.2, 1.0}, options);
  EXPECT_EQ(r.iterations, 65);
  EXPECT_EQ(r.backtracks, 27);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 2.0719924713695638e-29, 1e-30);
  EXPECT_NEAR(r.grad_norm, 9.1038288019262836e-15, 1e-17);
}

TEST(CgNewtonTest, LogisticTrajectoryPin) {
  const LogisticProblem prob = LogisticProblem::Make();
  const OptimResult r =
      MinimizeCgNewton(prob.MakeObjective(), prob.MakeHvp(), Vector(3, 0.0));
  EXPECT_EQ(r.iterations, 10);
  EXPECT_EQ(r.backtracks, 0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 30.960546902823079, 1e-12);
  EXPECT_NEAR(r.grad_norm, 8.0491169285323849e-15, 1e-14);
}

}  // namespace
}  // namespace fairbench
