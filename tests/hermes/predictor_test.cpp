#include "hermes/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace hermes::core {
namespace {

std::vector<double> constant_series(double v, int n) {
  return std::vector<double>(static_cast<std::size_t>(n), v);
}

std::vector<double> linear_series(double start, double slope, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) out.push_back(start + slope * i);
  return out;
}

TEST(Ewma, EmptyHistoryPredictsZero) {
  EwmaPredictor p;
  EXPECT_EQ(p.predict({}), 0.0);
}

TEST(Ewma, ConstantSeriesPredictsConstant) {
  EwmaPredictor p(0.3);
  auto s = constant_series(42, 20);
  EXPECT_NEAR(p.predict(s), 42.0, 1e-9);
}

TEST(Ewma, LagsBehindTrend) {
  EwmaPredictor p(0.3);
  auto s = linear_series(0, 10, 20);  // ...170, 180, 190
  double pred = p.predict(s);
  EXPECT_LT(pred, 190.0);  // EWMA systematically under-predicts a ramp
  EXPECT_GT(pred, 100.0);
}

TEST(Ewma, AlphaOneTracksLastValue) {
  EwmaPredictor p(1.0);
  std::vector<double> s{5, 9, 1, 33};
  EXPECT_NEAR(p.predict(s), 33.0, 1e-9);
}

TEST(CubicSpline, EmptyAndTinyHistories) {
  CubicSplinePredictor p;
  EXPECT_EQ(p.predict({}), 0.0);
  std::vector<double> one{7};
  EXPECT_NEAR(p.predict(one), 7.0, 1e-9);
  std::vector<double> two{4, 6};
  EXPECT_NEAR(p.predict(two), 8.0, 1e-9);  // linear continuation
}

TEST(CubicSpline, ConstantSeriesPredictsConstant) {
  CubicSplinePredictor p;
  auto s = constant_series(13, 10);
  EXPECT_NEAR(p.predict(s), 13.0, 1e-6);
}

TEST(CubicSpline, ExtrapolatesLinearTrendExactly) {
  // A natural spline through collinear points is the straight line, so
  // extrapolation continues it exactly — splines track ramps that EWMA
  // lags on. That difference is why the paper found splines best (§8.6).
  CubicSplinePredictor p;
  auto s = linear_series(100, 25, 8);  // last = 275, next = 300
  EXPECT_NEAR(p.predict(s), 300.0, 1e-6);
}

TEST(CubicSpline, NeverReturnsNegative) {
  CubicSplinePredictor p;
  std::vector<double> s{100, 50, 10, 1};  // steep decay extrapolates < 0
  EXPECT_GE(p.predict(s), 0.0);
}

TEST(Arma, EmptyHistoryPredictsZero) {
  ArmaPredictor p;
  EXPECT_EQ(p.predict({}), 0.0);
}

TEST(Arma, ConstantSeriesPredictsConstant) {
  ArmaPredictor p;
  auto s = constant_series(21, 40);
  EXPECT_NEAR(p.predict(s), 21.0, 1e-6);
}

TEST(Arma, TracksAlternatingPattern) {
  // AR models shine on oscillations: a strict +A/-A alternation has
  // phi_1 = -1 and is perfectly predictable.
  ArmaPredictor p(3, 32);
  std::vector<double> s;
  for (int i = 0; i < 32; ++i) s.push_back(i % 2 == 0 ? 100.0 : 20.0);
  // Last value was s[31] (odd index -> 20), next should be near 100.
  EXPECT_NEAR(p.predict(s), 100.0, 15.0);
}

TEST(Arma, ShortHistoryFallsBackGracefully) {
  ArmaPredictor p(3, 32);
  std::vector<double> s{8};
  EXPECT_NEAR(p.predict(s), 8.0, 1e-9);
}

TEST(Correctors, SlackInflatesMultiplicatively) {
  SlackCorrector slack(0.4);
  EXPECT_NEAR(slack.correct(1000), 1400.0, 1e-9);  // the paper's example
  EXPECT_EQ(SlackCorrector(0).correct(55), 55);
}

TEST(Correctors, DeadzoneInflatesAdditively) {
  DeadzoneCorrector dz(100);
  EXPECT_NEAR(dz.correct(1000), 1100.0, 1e-9);  // the paper's example
}

TEST(GrowthEstimator, ObserveAndPredict) {
  GrowthEstimator est(std::make_unique<EwmaPredictor>(1.0),
                      std::make_unique<SlackCorrector>(0.5));
  est.observe(10);
  est.observe(20);
  EXPECT_NEAR(est.raw_prediction(), 20.0, 1e-9);
  EXPECT_NEAR(est.predicted_next(), 30.0, 1e-9);
}

TEST(GrowthEstimator, HistoryIsBounded) {
  // Past several compactions of the window, for every predictor: the
  // history is exactly the last max_history counts and the cached
  // forecast is bit-equal to a fresh solve over it.
  constexpr std::size_t kMax = 4;
  for (const char* name : {"EWMA", "CubicSpline", "ARMA"}) {
    SCOPED_TRACE(name);
    GrowthEstimator est(make_predictor(name),
                        std::make_unique<SlackCorrector>(0.0), kMax);
    std::mt19937_64 rng(7);
    std::vector<double> seen;
    for (std::size_t i = 0; i < 4 * kMax + 1; ++i) {
      seen.push_back(static_cast<double>(rng() % 1000));
      est.observe(seen.back());
      std::span<const double> h = est.history();
      std::size_t kept = std::min(seen.size(), kMax);
      ASSERT_EQ(h.size(), kept);
      EXPECT_TRUE(std::equal(h.begin(), h.end(), seen.end() - kept));
      EXPECT_EQ(est.raw_prediction(), est.predictor().predict(h));
    }
  }
}

TEST(GrowthEstimator, ResetClears) {
  GrowthEstimator est(std::make_unique<EwmaPredictor>(),
                      std::make_unique<DeadzoneCorrector>(5));
  est.observe(50);
  est.reset();
  EXPECT_TRUE(est.history().empty());
  EXPECT_EQ(est.raw_prediction(), 0.0);
  EXPECT_NEAR(est.predicted_next(), 5.0, 1e-9);  // 0 + deadzone
}

/// Forecasts the last count and counts its own solves.
class CountingPredictor final : public Predictor {
 public:
  explicit CountingPredictor(int* solves) : solves_(solves) {}
  double predict(std::span<const double> history) const override {
    ++*solves_;
    return history.empty() ? 0 : history.back();
  }
  std::string_view name() const override { return "Counting"; }

 private:
  int* solves_;
};

TEST(GrowthEstimator, OneSolvePerObserve) {
  // A collecting registry makes observe() score the previous forecast;
  // that must read the cached value, not solve again.
  obs::Registry reg;
  obs::attach(&reg);
  int solves = 0;
  GrowthEstimator est(std::make_unique<CountingPredictor>(&solves),
                      std::make_unique<SlackCorrector>(0.5),
                      /*max_history=*/3);
  obs::attach(nullptr);
  EXPECT_EQ(solves, 0);
  for (int i = 1; i <= 10; ++i) {
    est.observe(i);
    EXPECT_EQ(solves, i);
    for (int read = 0; read < 5; ++read) {
      EXPECT_EQ(est.raw_prediction(), i);
      EXPECT_EQ(est.predicted_next(), 1.5 * i);
    }
    EXPECT_EQ(solves, i);
  }
  EXPECT_EQ(reg.counter_value("predictor.samples"), 9u);
  est.reset();
  EXPECT_EQ(est.predicted_next(), 0.0);
  EXPECT_EQ(solves, 10);
}

TEST(Factories, KnownNamesResolve) {
  EXPECT_NE(make_predictor("EWMA"), nullptr);
  EXPECT_NE(make_predictor("CubicSpline"), nullptr);
  EXPECT_NE(make_predictor("ARMA"), nullptr);
  EXPECT_EQ(make_predictor("oracle"), nullptr);
  EXPECT_NE(make_corrector("Slack", 1.0), nullptr);
  EXPECT_NE(make_corrector("Deadzone", 10), nullptr);
  EXPECT_EQ(make_corrector("psychic", 0), nullptr);
}

// Section 8.6's qualitative claim: on trending workloads the spline's
// prediction error beats EWMA's.
TEST(PredictorComparison, SplineBeatsEwmaOnRamps) {
  CubicSplinePredictor spline;
  EwmaPredictor ewma(0.3);
  std::mt19937_64 rng(99);
  std::normal_distribution<double> noise(0, 3);
  double spline_err = 0, ewma_err = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> s;
    double slope = 5 + static_cast<double>(trial % 7);
    for (int i = 0; i < 12; ++i) s.push_back(50 + slope * i + noise(rng));
    double truth = 50 + slope * 12;
    spline_err += std::abs(spline.predict(s) - truth);
    ewma_err += std::abs(ewma.predict(s) - truth);
  }
  EXPECT_LT(spline_err, ewma_err);
}

// Predictors must stay finite and non-negative on adversarial inputs.
class PredictorRobustness
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PredictorRobustness, AdversarialInputsStaySane) {
  auto p = make_predictor(GetParam());
  ASSERT_NE(p, nullptr);
  std::mt19937_64 rng(5);
  std::vector<std::vector<double>> cases = {
      {},
      {0},
      {0, 0, 0, 0, 0, 0, 0, 0},
      {1e12, 0, 1e12, 0, 1e12},
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
  };
  std::vector<double> random_case;
  for (int i = 0; i < 100; ++i)
    random_case.push_back(static_cast<double>(rng() % 10000));
  cases.push_back(random_case);
  for (const auto& c : cases) {
    double v = p->predict(c);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, PredictorRobustness,
                         ::testing::Values("EWMA", "CubicSpline", "ARMA"));

}  // namespace
}  // namespace hermes::core
