#include "analysis/threshold.h"

#include <gtest/gtest.h>

#include "analysis/bitcoin_es.h"

namespace ethsm::analysis {
namespace {

const auto kByz = rewards::RewardConfig::ethereum_byzantium();
const auto kFlat = rewards::RewardConfig::ethereum_flat(0.5);
const auto kBtc = rewards::RewardConfig::bitcoin();

ThresholdOptions fast_options() {
  ThresholdOptions o;
  o.tolerance = 1e-5;
  o.max_lead = 60;
  return o;
}

TEST(Threshold, PaperScenario1ByzantiumAtGammaHalf) {
  // Sec. VI: 0.054 under Ku(.) in scenario 1.
  const auto t = profitability_threshold(0.5, kByz,
                                         Scenario::regular_rate_one,
                                         fast_options());
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.054, 0.002);
}

TEST(Threshold, PaperScenario2ByzantiumAtGammaHalf) {
  // Sec. VI: 0.270 under Ku(.) in scenario 2 (paper's own truncated
  // numerics; we allow a slightly wider band here: this library's value,
  // 0.274290855026, is pinned by
  // GoldenFig10.ThresholdCurveMatchesCheckedInSeries).
  const auto t = profitability_threshold(
      0.5, kByz, Scenario::regular_and_uncle_rate_one, fast_options());
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.270, 0.006);
}

TEST(Threshold, PaperScenario1FlatAtGammaHalf) {
  // Sec. V-A / Sec. VI: 0.163 under flat Ku = 4/8 in scenario 1.
  const auto t = profitability_threshold(0.5, kFlat,
                                         Scenario::regular_rate_one,
                                         fast_options());
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.163, 0.002);
}

TEST(Threshold, PaperScenario2FlatAtGammaHalf) {
  // Sec. VI: 0.356 under flat Ku = 4/8 in scenario 2.
  const auto t = profitability_threshold(
      0.5, kFlat, Scenario::regular_and_uncle_rate_one, fast_options());
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.356, 0.003);
}

TEST(Threshold, BitcoinConfigReproducesEyalSirer) {
  for (double gamma : {0.0, 0.25, 0.5, 0.75}) {
    const auto t = profitability_threshold(gamma, kBtc,
                                           Scenario::regular_rate_one,
                                           fast_options());
    ASSERT_TRUE(t.has_value()) << "gamma=" << gamma;
    EXPECT_NEAR(*t, eyal_sirer_threshold(gamma), 5e-4) << "gamma=" << gamma;
  }
}

TEST(Threshold, GammaOneAlwaysProfitable) {
  const auto t = profitability_threshold(1.0, kByz,
                                         Scenario::regular_rate_one,
                                         fast_options());
  ASSERT_TRUE(t.has_value());
  EXPECT_LT(*t, 0.01);
}

TEST(Threshold, MonotoneDecreasingInGamma) {
  double previous = 1.0;
  for (double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto t = profitability_threshold(gamma, kByz,
                                           Scenario::regular_rate_one,
                                           fast_options());
    ASSERT_TRUE(t.has_value());
    EXPECT_LE(*t, previous + 1e-9) << "gamma=" << gamma;
    previous = *t;
  }
}

TEST(Threshold, Scenario1BelowBitcoinEverywhere) {
  // Fig. 10's headline: Ethereum (scenario 1) is more vulnerable than
  // Bitcoin at every gamma < 1.
  for (double gamma : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    const auto t = profitability_threshold(gamma, kByz,
                                           Scenario::regular_rate_one,
                                           fast_options());
    ASSERT_TRUE(t.has_value());
    EXPECT_LT(*t, eyal_sirer_threshold(gamma)) << "gamma=" << gamma;
  }
}

TEST(Threshold, Scenario2CrossesBitcoinNearPointFour)
{
  // Fig. 10: scenario 2 is above Bitcoin for gamma >~ 0.39.
  const auto below = profitability_threshold(
      0.2, kByz, Scenario::regular_and_uncle_rate_one, fast_options());
  const auto above = profitability_threshold(
      0.6, kByz, Scenario::regular_and_uncle_rate_one, fast_options());
  ASSERT_TRUE(below.has_value());
  ASSERT_TRUE(above.has_value());
  EXPECT_LT(*below, eyal_sirer_threshold(0.2));
  EXPECT_GT(*above, eyal_sirer_threshold(0.6));
}

TEST(Threshold, HigherUncleRewardLowersThreshold) {
  double previous = 0.0;
  for (double ku : {7.0 / 8, 4.0 / 8, 2.0 / 8}) {  // descending generosity
    const auto t = profitability_threshold(
        0.5, rewards::RewardConfig::ethereum_flat(ku),
        Scenario::regular_rate_one, fast_options());
    ASSERT_TRUE(t.has_value());
    EXPECT_GT(*t, previous) << "ku=" << ku;
    previous = *t;
  }
}

TEST(ThresholdBracketReport, InteriorCrossingIsTheCommonCase) {
  const auto report = profitability_threshold_report(
      0.5, kByz, Scenario::regular_rate_one, fast_options());
  ASSERT_TRUE(report.alpha.has_value());
  EXPECT_EQ(report.bracket, ThresholdBracket::interior_crossing);
  EXPECT_NEAR(*report.alpha, 0.054, 0.002);
}

TEST(ThresholdBracketReport, GammaOneReportsAlwaysProfitable) {
  const auto report = profitability_threshold_report(
      1.0, kByz, Scenario::regular_rate_one, fast_options());
  ASSERT_TRUE(report.alpha.has_value());
  EXPECT_EQ(report.bracket, ThresholdBracket::always_profitable);
  EXPECT_EQ(*report.alpha, fast_options().alpha_min);
}

TEST(ThresholdBracketReport, ShrunkBracketReportsNeverProfitable) {
  ThresholdOptions o = fast_options();
  o.alpha_max = 0.02;  // well below the gamma = 0.5 Byzantium threshold
  const auto report = profitability_threshold_report(
      0.5, kByz, Scenario::regular_rate_one, o);
  EXPECT_FALSE(report.alpha.has_value());
  EXPECT_EQ(report.bracket, ThresholdBracket::never_profitable);
}

TEST(ThresholdBracketReport, SignChangeOnAlphaMaxIsReportedNotFatal) {
  // Regression for the bracket-endpoint edge: when alpha_max sits exactly on
  // the sign change at tight tolerance, the search must *report* the verdict
  // (at_alpha_max) rather than fail or masquerade as an interior crossing.
  // Exercised for gamma values around the scenario-2 knee, where the
  // scenario-2 threshold is largest and a conservatively chosen alpha_max is
  // most likely to land on it.
  ThresholdOptions tight = fast_options();
  tight.tolerance = 1e-7;
  for (double gamma : {0.40, 0.45, 0.50, 0.55, 0.60}) {
    SCOPED_TRACE("gamma=" + std::to_string(gamma));
    const auto interior = profitability_threshold_report(
        gamma, kByz, Scenario::regular_and_uncle_rate_one, tight);
    ASSERT_TRUE(interior.alpha.has_value());
    ASSERT_EQ(interior.bracket, ThresholdBracket::interior_crossing);

    // Pin the bracket's upper end exactly onto the found sign change.
    ThresholdOptions pinned = tight;
    pinned.alpha_max = *interior.alpha;
    const auto on_edge = profitability_threshold_report(
        gamma, kByz, Scenario::regular_and_uncle_rate_one, pinned);
    ASSERT_TRUE(on_edge.alpha.has_value());
    EXPECT_EQ(on_edge.bracket, ThresholdBracket::at_alpha_max);
    EXPECT_NEAR(*on_edge.alpha, *interior.alpha, pinned.tolerance * 2);

    // A hair below the crossing the bracket contains no sign change at all.
    ThresholdOptions below = tight;
    below.alpha_max = *interior.alpha - 1e-4;
    const auto under = profitability_threshold_report(
        gamma, kByz, Scenario::regular_and_uncle_rate_one, below);
    EXPECT_FALSE(under.alpha.has_value());
    EXPECT_EQ(under.bracket, ThresholdBracket::never_profitable);
  }
}

TEST(ThresholdBracketReport, AlphaMatchesLegacyInterfaceBitwise) {
  for (double gamma : {0.0, 0.3, 0.7}) {
    const auto report = profitability_threshold_report(
        gamma, kByz, Scenario::regular_rate_one, fast_options());
    const auto legacy = profitability_threshold(
        gamma, kByz, Scenario::regular_rate_one, fast_options());
    ASSERT_EQ(report.alpha.has_value(), legacy.has_value());
    if (legacy) EXPECT_EQ(*report.alpha, *legacy);  // exact, not approximate
  }
}

TEST(SelfishAdvantage, NegativeBelowThresholdPositiveAbove) {
  EXPECT_LT(selfish_advantage(0.10, 0.5, kFlat, Scenario::regular_rate_one),
            0.0);
  EXPECT_GT(selfish_advantage(0.25, 0.5, kFlat, Scenario::regular_rate_one),
            0.0);
}

TEST(SelfishAdvantage, SmallLossBelowThreshold) {
  // Sec. V-A: below the threshold the pool "loses just a small amount" --
  // the uncle economy cushions the attack cost (unlike Bitcoin). Fig. 8's
  // setup is the flat Ku = 4/8 schedule with threshold 0.163, so alpha = 0.10
  // sits below it. (Under Byzantium the threshold is 0.054 and alpha = 0.10
  // would already be profitable.)
  const double loss_eth =
      -selfish_advantage(0.10, 0.5, kFlat, Scenario::regular_rate_one);
  const double loss_btc =
      -selfish_advantage(0.10, 0.5, kBtc, Scenario::regular_rate_one);
  EXPECT_GT(loss_eth, 0.0);
  EXPECT_GT(loss_btc, 0.0);
  EXPECT_LT(loss_eth, loss_btc / 2.0);  // Ethereum's loss is far smaller
}

}  // namespace
}  // namespace ethsm::analysis
