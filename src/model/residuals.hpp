// Residual-time distributions for the abort split (§3.1).
//
// When a local and a central transaction collide on the same entity, who
// aborts depends on timing: if the local transaction is still running when
// the central transaction's authentication arrives, the local transaction
// is preempted (local abort); if the local transaction commits first, its
// asynchronous update invalidates the central transaction (central abort).
//
// The paper approximates the remaining time of the requester as uniform
// (requests spread evenly over the run) and of the holder as triangular
// with density proportional to (T - x) (collision probability proportional
// to locks held, which grow linearly over the run), and adds the
// communication delay to the central side. This module computes
// P(A > B + d) for those distribution shapes.
#pragma once

namespace hls {

/// Shape of a residual-time distribution on [0, length].
enum class ResidualShape {
  Uniform,     ///< density 1/T
  Triangular,  ///< density 2(T-x)/T^2, mass concentrated near 0
};

struct Residual {
  ResidualShape shape = ResidualShape::Uniform;
  double length = 0.0;  ///< support [0, length]; length 0 = the point mass {0}
};

/// P(A > B + offset) for independent residuals A, B and offset >= 0.
/// Defined as the 512-step composite Simpson sum of f_B(y) * S_A(y + offset)
/// over B's support and evaluated in O(1): the exact integral over the
/// panels below y* = a.length - offset, where the integrand is one cubic,
/// plus Simpson's estimate on the panel that straddles y*. Unit tests
/// cross-check the 512-step loop, closed forms and Monte-Carlo estimates.
[[nodiscard]] double prob_first_exceeds(const Residual& a, const Residual& b,
                                        double offset);

/// P(X > t) for a residual distribution (its survival function).
[[nodiscard]] double residual_survival(const Residual& r, double t);

}  // namespace hls
