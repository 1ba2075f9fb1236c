#include "fair/pre/salimi.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/generators/population.h"
#include "stats/contingency.h"

namespace fairbench {
namespace {

FairContext AdultContext(uint64_t seed) {
  FairContext ctx;
  const PopulationConfig config = AdultConfig();
  ctx.resolving_attributes = config.resolving_attributes;
  ctx.inadmissible_attributes = config.inadmissible_attributes;
  ctx.seed = seed;
  return ctx;
}

/// Dependence of Y on S measured by the Pearson chi-square statistic per
/// tuple (weighted datasets not expected here).
double SYChiSquare(const Dataset& ds) {
  const ContingencyTable t =
      ContingencyTable::FromCodes(ds.sensitive(), 2, ds.labels(), 2, {}).value();
  double stat = 0.0;
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < t.cols(); ++c) {
      const double expected = t.RowTotal(r) * t.ColTotal(c) / t.Total();
      if (expected <= 0.0) continue;
      const double diff = t.cell(r, c) - expected;
      stat += diff * diff / expected;
    }
  }
  return stat / static_cast<double>(ds.num_rows());
}

class SalimiVariantTest : public testing::TestWithParam<SalimiVariant> {
 protected:
  Salimi Make() const {
    SalimiOptions options;
    options.variant = GetParam();
    return Salimi(options);
  }
};

TEST_P(SalimiVariantTest, RepairReducesInadmissibleDependence) {
  const Dataset train = GenerateAdult(6000, 1).value();
  Salimi salimi = Make();
  Result<Dataset> repaired = salimi.Repair(train, AdultContext(2));
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ASSERT_GT(repaired->num_rows(), 0u);
  EXPECT_TRUE(repaired->Validate().ok());
  // The repair targets Y dependence on S (within admissible blocks); the
  // marginal S-Y dependence must drop.
  EXPECT_LT(SYChiSquare(repaired.value()), SYChiSquare(train));
}

TEST_P(SalimiVariantTest, SchemaPreserved) {
  const Dataset train = GenerateAdult(2000, 3).value();
  Salimi salimi = Make();
  const Dataset repaired = salimi.Repair(train, AdultContext(4)).value();
  EXPECT_TRUE(repaired.schema() == train.schema());
}

TEST_P(SalimiVariantTest, RowCountChangesAreInsertOrDelete) {
  // Salimi repairs only via tuple insertion/deletion: the multiset of
  // feature rows in the output must come from the input (labels may be
  // overridden on inserted clones). We check a weaker but meaningful
  // invariant: every numeric value in the output exists in the input
  // column.
  const Dataset train = GenerateCompas(2000, 5).value();
  FairContext ctx;
  ctx.inadmissible_attributes = CompasConfig().inadmissible_attributes;
  ctx.seed = 6;
  Salimi salimi = Make();
  const Dataset repaired = salimi.Repair(train, ctx).value();
  const std::size_t col = 0;  // age.
  std::set<double> source(train.column(col).numeric.begin(),
                          train.column(col).numeric.end());
  for (double v : repaired.column(col).numeric) {
    EXPECT_TRUE(source.count(v) > 0);
  }
}

TEST_P(SalimiVariantTest, DeterministicPerSeed) {
  const Dataset train = GenerateGerman(800, 7).value();
  FairContext ctx;
  ctx.seed = 8;
  Salimi a = Make();
  Salimi b = Make();
  const Dataset ra = a.Repair(train, ctx).value();
  const Dataset rb = b.Repair(train, ctx).value();
  EXPECT_EQ(ra.num_rows(), rb.num_rows());
  EXPECT_EQ(ra.labels(), rb.labels());
}

INSTANTIATE_TEST_SUITE_P(BothVariants, SalimiVariantTest,
                         testing::Values(SalimiVariant::kMaxSat,
                                         SalimiVariant::kMatFac),
                         [](const testing::TestParamInfo<SalimiVariant>& info) {
                           return info.param == SalimiVariant::kMaxSat
                                      ? "MaxSat"
                                      : "MatFac";
                         });

TEST(SalimiTest, NamesDistinguishVariants) {
  SalimiOptions maxsat;
  maxsat.variant = SalimiVariant::kMaxSat;
  SalimiOptions matfac;
  matfac.variant = SalimiVariant::kMatFac;
  EXPECT_EQ(Salimi(maxsat).name(), "Salimi-JF(MaxSAT)");
  EXPECT_EQ(Salimi(matfac).name(), "Salimi-JF(MatFac)");
}

TEST(SalimiTest, EmptyDataRejected) {
  Salimi salimi;
  FairContext ctx;
  EXPECT_FALSE(salimi.Repair(Dataset(), ctx).ok());
}

}  // namespace
}  // namespace fairbench
