#include "model/residuals.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace hls {

double residual_survival(const Residual& r, double t) {
  if (t <= 0.0) {
    return 1.0;
  }
  if (t >= r.length) {
    return 0.0;
  }
  const double u = t / r.length;
  switch (r.shape) {
    case ResidualShape::Uniform:
      return 1.0 - u;
    case ResidualShape::Triangular:
      // density 2(T-x)/T^2 -> survival (1-u)^2
      return (1.0 - u) * (1.0 - u);
  }
  return 0.0;
}

namespace {

double density(const Residual& r, double x) {
  if (x < 0.0 || x > r.length || r.length <= 0.0) {
    return 0.0;
  }
  switch (r.shape) {
    case ResidualShape::Uniform:
      return 1.0 / r.length;
    case ResidualShape::Triangular:
      return 2.0 * (r.length - x) / (r.length * r.length);
  }
  return 0.0;
}

}  // namespace

double prob_first_exceeds(const Residual& a, const Residual& b, double offset) {
  HLS_ASSERT(offset >= 0.0, "negative offset");
  HLS_ASSERT(a.length >= 0.0 && b.length >= 0.0, "negative residual length");

  if (a.length <= 0.0) {
    return 0.0;  // A == 0 can never exceed B + offset >= 0
  }
  if (b.length <= 0.0) {
    // A > offset with B degenerate at 0.
    return residual_survival(a, offset);
  }

  // P(A > B + offset) = integral over y in [0, b.length] of
  // g(y) = f_B(y) * S_A(y + offset), defined as its composite Simpson sum on
  // 2 * kPanels equal steps. Below y* = a.length - offset, g is one
  // polynomial of degree <= 3 (a constant or linear density times a linear or
  // quadratic survival); from y* on it is 0. Simpson's rule is exact for
  // cubics, so the sum equals the exact integral over the whole panels below
  // y* (a 2-point Gauss-Legendre rule, also exact for cubics) plus Simpson's
  // 3-point estimate on the one panel that straddles y*, taken at the sum's
  // own nodes y = i * h.
  const double y_star = a.length - offset;
  if (y_star <= 0.0) {
    return 0.0;  // A <= a.length <= offset <= B + offset
  }
  constexpr int kPanels = 256;
  const double h = b.length / (2 * kPanels);
  const int full = static_cast<int>(
      std::min<double>(kPanels, std::floor(y_star / (2.0 * h))));
  const auto g = [&](double y) {
    return density(b, y) * residual_survival(a, y + offset);
  };

  const double half = full * h;  // half the width of [0, 2 * full * h]
  const double gl = half / std::sqrt(3.0);
  double p = half * (g(half - gl) + g(half + gl));
  if (full < kPanels) {
    const int i = 2 * full;
    p += (g(i * h) + 4.0 * g((i + 1) * h) + g((i + 2) * h)) * h / 3.0;
  }
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace hls
