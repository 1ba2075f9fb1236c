#ifndef FAIRBENCH_TESTS_OPTIM_LBFGS_ORACLE_H_
#define FAIRBENCH_TESTS_OPTIM_LBFGS_ORACLE_H_

// Limited-memory BFGS: an independent quasi-Newton minimizer that
// cg_newton_test compares MinimizeCgNewton against. lbfgs_test pins its
// trajectories so the oracle itself cannot drift.

#include <cmath>
#include <deque>
#include <limits>

#include "optim/objective.h"
#include "optim/solver_telemetry.h"

namespace fairbench {

/// Options for limited-memory BFGS.
struct LbfgsOptions {
  int max_iterations = 200;
  int history = 8;            ///< Number of (s, y) pairs retained.
  double tolerance = 1e-7;    ///< Stop when ||grad||_inf < tolerance.
  double armijo_c = 1e-4;
  double backtrack_factor = 0.5;
  int max_backtracks = 40;
};

/// Minimizes a smooth objective with the two-loop-recursion L-BFGS method
/// and a weak-Wolfe line search.
inline OptimResult MinimizeLbfgs(const Objective& objective, Vector x0,
                                 const LbfgsOptions& options = {}) {
  OptimResult result;
  result.x = std::move(x0);
  const std::size_t n = result.x.size();
  Vector grad(n, 0.0);
  double fx = objective(result.x, &grad);

  std::deque<Vector> s_hist;  // x_{k+1} - x_k
  std::deque<Vector> y_hist;  // g_{k+1} - g_k
  std::deque<double> rho_hist;

  result.grad_norm = NormInf(grad);

  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    result.grad_norm = NormInf(grad);
    if (result.grad_norm < options.tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion: d = -H_k * grad.
    Vector q = grad;
    std::vector<double> alpha(s_hist.size(), 0.0);
    for (std::size_t i = s_hist.size(); i > 0; --i) {
      const std::size_t k = i - 1;
      alpha[k] = rho_hist[k] * Dot(s_hist[k], q);
      Axpy(-alpha[k], y_hist[k], &q);
    }
    double gamma = 1.0;
    if (!s_hist.empty()) {
      const double yy = SquaredNorm2(y_hist.back());
      if (yy > 0.0) gamma = Dot(s_hist.back(), y_hist.back()) / yy;
    }
    Scale(gamma, &q);
    for (std::size_t k = 0; k < s_hist.size(); ++k) {
      const double beta = rho_hist[k] * Dot(y_hist[k], q);
      Axpy(alpha[k] - beta, s_hist[k], &q);
    }
    Vector direction = q;
    Scale(-1.0, &direction);

    double dir_deriv = Dot(grad, direction);
    if (dir_deriv >= 0.0) {
      // Not a descent direction (can happen with noisy objectives): fall
      // back to steepest descent.
      direction = grad;
      Scale(-1.0, &direction);
      dir_deriv = -SquaredNorm2(grad);
    }

    // Weak-Wolfe line search (Lewis-Overton bisection): the curvature
    // condition keeps s^T y > 0 so the quasi-Newton history stays valid —
    // Armijo alone stalls in curved valleys.
    constexpr double kCurvatureC = 0.9;
    double t = 1.0;
    double t_lo = 0.0;
    double t_hi = std::numeric_limits<double>::infinity();
    Vector trial(n, 0.0);
    Vector trial_grad(n, 0.0);
    double ftrial = fx;
    bool accepted = false;
    // Best Armijo-satisfying point seen, as a fallback when the curvature
    // condition is unattainable within the budget.
    bool have_armijo = false;
    Vector armijo_x;
    Vector armijo_grad;
    double armijo_f = fx;
    for (int bt = 0; bt < 2 * options.max_backtracks; ++bt) {
      trial = result.x;
      Axpy(t, direction, &trial);
      ftrial = objective(trial, &trial_grad);
      const bool armijo_ok =
          std::isfinite(ftrial) &&
          ftrial <= fx + options.armijo_c * t * dir_deriv;
      if (!armijo_ok) {
        ++result.backtracks;
        t_hi = t;
        t = 0.5 * (t_lo + t_hi);
        continue;
      }
      if (!have_armijo || ftrial < armijo_f) {
        have_armijo = true;
        armijo_x = trial;
        armijo_grad = trial_grad;
        armijo_f = ftrial;
      }
      if (Dot(trial_grad, direction) < kCurvatureC * dir_deriv) {
        // Step too short: expand (or bisect toward t_hi).
        ++result.backtracks;
        t_lo = t;
        t = std::isinf(t_hi) ? 2.0 * t : 0.5 * (t_lo + t_hi);
        continue;
      }
      accepted = true;
      break;
    }
    if (!accepted && have_armijo) {
      trial = std::move(armijo_x);
      trial_grad = std::move(armijo_grad);
      ftrial = armijo_f;
      accepted = true;
    }
    if (!accepted) {
      // The quasi-Newton direction can be poorly scaled on stiff problems
      // (e.g. Rosenbrock's valley). Drop the curvature history once and
      // restart from steepest descent before giving up.
      if (!s_hist.empty()) {
        s_hist.clear();
        y_hist.clear();
        rho_hist.clear();
        continue;
      }
      break;
    }

    Vector s = Sub(trial, result.x);
    Vector y = Sub(trial_grad, grad);
    const double sy = Dot(s, y);
    if (sy > 1e-12) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (static_cast<int>(s_hist.size()) > options.history) {
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    }
    result.x = std::move(trial);
    grad = trial_grad;
    fx = ftrial;
    result.grad_norm = NormInf(grad);
  }
  result.value = fx;
  RecordSolveTelemetry("optim.lbfgs", result);
  return result;
}

}  // namespace fairbench

#endif  // FAIRBENCH_TESTS_OPTIM_LBFGS_ORACLE_H_
