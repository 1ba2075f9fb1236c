#include "causal/intervention.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fairbench {
namespace {

/// S -> M -> Y and S -> Y with known effect sizes.
DiscreteData TriangleData(std::size_t n, uint64_t seed, double direct,
                          double mediated) {
  Rng rng(seed);
  DiscreteData data;
  data.columns.resize(3);
  data.cardinalities = {2, 2, 2};
  for (std::size_t i = 0; i < n; ++i) {
    const int s = rng.Bernoulli(0.5) ? 1 : 0;
    const int m = rng.Bernoulli(s == 1 ? 0.9 : 0.1) ? 1 : 0;
    const double py = 0.1 + direct * s + mediated * m;
    const int y = rng.Bernoulli(py) ? 1 : 0;
    data.columns[0].push_back(s);
    data.columns[1].push_back(m);
    data.columns[2].push_back(y);
  }
  return data;
}

Dag TriangleDag() {
  Dag dag(3);
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_TRUE(dag.AddEdge(0, 2).ok());
  return dag;
}

TEST(InterventionTest, TotalEffectMatchesConstruction) {
  // Total effect of S on Y: direct 0.3 + mediated 0.4 * (0.9 - 0.1) = 0.62.
  const DiscreteData data = TriangleData(30000, 1, 0.3, 0.4);
  const BayesNet bn = BayesNet::Fit(data, TriangleDag()).value();
  Result<double> ace = AverageCausalEffect(bn, 0, 2);
  ASSERT_TRUE(ace.ok());
  EXPECT_NEAR(ace.value(), 0.3 + 0.4 * 0.8, 0.03);
}

TEST(InterventionTest, NoEffectWhenSIsolated) {
  // Remove both S edges: the do() contrast must be ~0.
  const DiscreteData data = TriangleData(20000, 2, 0.0, 0.4);
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  const BayesNet bn = BayesNet::Fit(data, dag).value();
  Result<double> ace = AverageCausalEffect(bn, 0, 2);
  ASSERT_TRUE(ace.ok());
  EXPECT_NEAR(ace.value(), 0.0, 0.02);
}

TEST(InterventionTest, RejectsBadIndices) {
  const DiscreteData data = TriangleData(100, 4, 0.1, 0.1);
  const BayesNet bn = BayesNet::Fit(data, TriangleDag()).value();
  EXPECT_FALSE(AverageCausalEffect(bn, 0, 0).ok());
  EXPECT_FALSE(AverageCausalEffect(bn, -1, 2).ok());
}

TEST(InterventionTest, DeterministicForSeed) {
  const DiscreteData data = TriangleData(5000, 5, 0.2, 0.2);
  const BayesNet bn = BayesNet::Fit(data, TriangleDag()).value();
  InterventionOptions options;
  options.num_samples = 5000;
  const double a = AverageCausalEffect(bn, 0, 2, options).value();
  const double b = AverageCausalEffect(bn, 0, 2, options).value();
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace fairbench
