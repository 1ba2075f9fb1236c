// Pins every approach's predictions, plain and do(S)-flipped, on all four
// generators against tests/golden/predictions.txt (see
// tools/prediction_golden.h for the scenario; regenerate only deliberately,
// via tools/make_golden). The prediction path may be restructured freely as
// long as no label changes.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../../tools/prediction_golden.h"

namespace fairbench {
namespace {

TEST(PredictionGoldenTest, EveryApproachMatchesGolden) {
  std::ifstream in(std::string(FAIRBENCH_GOLDEN_DIR) + "/predictions.txt",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture; run tools/make_golden";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), golden::PredictionGoldenText())
      << "predictions drifted from the golden; if intentional, regenerate "
         "with tools/make_golden and justify in the PR";
}

}  // namespace
}  // namespace fairbench
