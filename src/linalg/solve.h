#ifndef FAIRBENCH_LINALG_SOLVE_H_
#define FAIRBENCH_LINALG_SOLVE_H_

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace fairbench {

/// Solves A x = b for symmetric positive-definite A via Cholesky
/// factorization. Returns InvalidArgument on shape mismatch and
/// FailedPrecondition when A is not (numerically) positive definite.
Result<Vector> CholeskySolve(const Matrix& a, const Vector& b);

}  // namespace fairbench

#endif  // FAIRBENCH_LINALG_SOLVE_H_
