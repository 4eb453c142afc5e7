#include "hermes/predictor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace hermes::core {

namespace {

double clamp_forecast(double v) {
  if (!std::isfinite(v) || v < 0) return 0;
  return v;
}

}  // namespace

// --- EWMA -------------------------------------------------------------------

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  assert(alpha > 0 && alpha <= 1);
}

double EwmaPredictor::predict(std::span<const double> history) const {
  if (history.empty()) return 0;
  double s = history.front();
  for (std::size_t i = 1; i < history.size(); ++i)
    s = alpha_ * history[i] + (1 - alpha_) * s;
  return clamp_forecast(s);
}

// --- Cubic spline ------------------------------------------------------------

CubicSplinePredictor::CubicSplinePredictor(int window) : window_(window) {
  assert(window >= 3 && window <= kMaxWindow);
}

double CubicSplinePredictor::predict(std::span<const double> history) const {
  if (history.empty()) return 0;
  if (history.size() == 1) return clamp_forecast(history[0]);
  // Use the last `window_` samples at abscissae 0..n-1.
  std::size_t n = std::min(history.size(), static_cast<std::size_t>(window_));
  std::span<const double> y = history.subspan(history.size() - n);
  if (n == 2) {
    // Linear extrapolation.
    return clamp_forecast(y[1] + (y[1] - y[0]));
  }

  // Natural cubic spline: solve the tridiagonal system for the second
  // derivatives M_i (M_0 = M_{n-1} = 0), knot spacing h = 1.
  double m[kMaxWindow];
  m[0] = m[n - 1] = 0.0;
  {
    std::size_t interior = n - 2;
    double diag[kMaxWindow];
    double rhs[kMaxWindow];
    for (std::size_t i = 0; i < interior; ++i) {
      diag[i] = 4.0;
      rhs[i] = 6.0 * (y[i + 2] - 2 * y[i + 1] + y[i]);
    }
    // Thomas algorithm with unit off-diagonals.
    for (std::size_t i = 1; i < interior; ++i) {
      double w = 1.0 / diag[i - 1];
      diag[i] -= w;
      rhs[i] -= w * rhs[i - 1];
    }
    for (std::size_t i = interior; i-- > 0;) {
      double upper = (i + 1 < interior) ? m[i + 2] : 0.0;
      m[i + 1] = (rhs[i] - upper) / diag[i];
    }
  }

  // Extrapolate one step past the last knot using the final segment's
  // cubic: on [n-2, n-1] with t = x - (n-2),
  //   S(t) = y0 (1-t) + y1 t + (M0 ((1-t)^3-(1-t)) + M1 (t^3-t)) / 6.
  // At x = n, t = 2.
  double y0 = y[n - 2], y1 = y[n - 1];
  double m0 = m[n - 2], m1 = m[n - 1];
  double t = 2.0;
  double omt = 1.0 - t;  // = -1
  double value = y0 * omt + y1 * t +
                 (m0 * (omt * omt * omt - omt) + m1 * (t * t * t - t)) / 6.0;
  return clamp_forecast(value);
}

// --- ARMA (AR(p) via Yule-Walker / Levinson-Durbin) --------------------------

ArmaPredictor::ArmaPredictor(int order, int window)
    : order_(order), window_(window) {
  assert(order >= 1 && order <= kMaxOrder && window > order * 2);
}

double ArmaPredictor::predict(std::span<const double> history) const {
  if (history.empty()) return 0;
  std::size_t n = std::min(history.size(), static_cast<std::size_t>(window_));
  std::span<const double> x = history.subspan(history.size() - n);
  int p = std::min<int>(order_, static_cast<int>(n) - 1);
  if (p < 1) return clamp_forecast(x.back());

  double mean = std::accumulate(x.begin(), x.end(), 0.0) /
                static_cast<double>(n);

  // Sample autocovariances r_0..r_p.
  double r[kMaxOrder + 1];
  for (int lag = 0; lag <= p; ++lag) {
    double acc = 0;
    for (std::size_t i = static_cast<std::size_t>(lag); i < n; ++i)
      acc += (x[i] - mean) * (x[i - static_cast<std::size_t>(lag)] - mean);
    r[static_cast<std::size_t>(lag)] = acc / static_cast<double>(n);
  }
  if (r[0] <= 1e-12) return clamp_forecast(mean);  // constant series

  // Levinson-Durbin recursion for the AR coefficients phi_1..phi_p.
  double phi[kMaxOrder + 1] = {};
  double prev[kMaxOrder + 1];
  double err = r[0];
  for (int k = 1; k <= p; ++k) {
    double acc = r[static_cast<std::size_t>(k)];
    for (int j = 1; j < k; ++j)
      acc -= phi[static_cast<std::size_t>(j)] *
             r[static_cast<std::size_t>(k - j)];
    double reflection = acc / err;
    std::copy_n(phi, k, prev);
    phi[static_cast<std::size_t>(k)] = reflection;
    for (int j = 1; j < k; ++j)
      phi[static_cast<std::size_t>(j)] =
          prev[static_cast<std::size_t>(j)] -
          reflection * prev[static_cast<std::size_t>(k - j)];
    err *= (1 - reflection * reflection);
    if (err <= 1e-12) break;
  }

  // One-step-ahead forecast around the mean. The MA innovation term has
  // zero expectation, so ARMA(p, q) and AR(p) forecasts coincide here.
  double forecast = mean;
  for (int j = 1; j <= p; ++j)
    forecast += phi[static_cast<std::size_t>(j)] *
                (x[n - static_cast<std::size_t>(j)] - mean);
  return clamp_forecast(forecast);
}

// --- Correctors ---------------------------------------------------------------

SlackCorrector::SlackCorrector(double factor) : factor_(factor) {
  assert(factor >= 0);
}
double SlackCorrector::correct(double predicted) const {
  return predicted * (1 + factor_);
}

DeadzoneCorrector::DeadzoneCorrector(double constant) : constant_(constant) {
  assert(constant >= 0);
}
double DeadzoneCorrector::correct(double predicted) const {
  return predicted + constant_;
}

// --- GrowthEstimator -----------------------------------------------------------

GrowthEstimator::GrowthEstimator(std::unique_ptr<Predictor> predictor,
                                 std::unique_ptr<Corrector> corrector,
                                 std::size_t max_history)
    : predictor_(std::move(predictor)),
      corrector_(std::move(corrector)),
      max_history_(max_history) {
  assert(predictor_ && corrector_ && max_history_ > 0);
}

void GrowthEstimator::observe(double count) {
  // Score the forecast made for the epoch that just closed.
  if (obs_samples_.attached() && !history().empty()) {
    obs_samples_.inc();
    obs_abs_error_.record(
        static_cast<std::uint64_t>(std::abs(forecast_ - count) + 0.5));
  }
  if (window_.size() == 2 * max_history_) {
    std::copy(window_.end() - static_cast<std::ptrdiff_t>(max_history_),
              window_.end(), window_.begin());
    window_.resize(max_history_);
    head_ = 0;
  }
  window_.push_back(count);
  if (window_.size() - head_ > max_history_) ++head_;
  forecast_ = predictor_->predict(history());
}

// --- Factories -----------------------------------------------------------------

std::unique_ptr<Predictor> make_predictor(std::string_view name) {
  if (name == "EWMA" || name == "ewma") return std::make_unique<EwmaPredictor>();
  if (name == "CubicSpline" || name == "cubic" || name == "spline")
    return std::make_unique<CubicSplinePredictor>();
  if (name == "ARMA" || name == "arma") return std::make_unique<ArmaPredictor>();
  return nullptr;
}

std::unique_ptr<Corrector> make_corrector(std::string_view name,
                                          double parameter) {
  if (name == "Slack" || name == "slack")
    return std::make_unique<SlackCorrector>(parameter);
  if (name == "Deadzone" || name == "deadzone")
    return std::make_unique<DeadzoneCorrector>(parameter);
  return nullptr;
}

}  // namespace hermes::core
