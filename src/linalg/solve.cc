#include "linalg/solve.h"

#include <cmath>

#include "common/string_util.h"
#include "linalg/kernels.h"

namespace fairbench {

Result<Vector> CholeskySolve(const Matrix& a, const Vector& b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("CholeskySolve: shape mismatch");
  }
  // Factor A = L L^T in place of a copy. The inner products over row
  // prefixes are the hot loops; they run on the optimized Dot kernel.
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j) - linalg::Dot(l.Row(i), l.Row(j), j);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) {
          return Status::FailedPrecondition(
              StrFormat("CholeskySolve: not SPD at pivot %zu (%g)", i, s));
        }
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  // Forward substitution L y = b.
  Vector y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = b[i] - linalg::Dot(l.Row(i), y.data(), i);
    y[i] = s / l(i, i);
  }
  // Back substitution L^T x = y.
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

}  // namespace fairbench
