#include "model/residuals.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>

#include "util/random.hpp"

namespace hls {
namespace {

// ---- survival functions ----

TEST(ResidualSurvival, UniformClosedForm) {
  const Residual r{ResidualShape::Uniform, 4.0};
  EXPECT_DOUBLE_EQ(residual_survival(r, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(residual_survival(r, 1.0), 0.75);
  EXPECT_DOUBLE_EQ(residual_survival(r, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(residual_survival(r, 9.0), 0.0);
}

TEST(ResidualSurvival, TriangularClosedForm) {
  const Residual r{ResidualShape::Triangular, 2.0};
  EXPECT_DOUBLE_EQ(residual_survival(r, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(residual_survival(r, 1.0), 0.25);  // (1 - 1/2)^2
  EXPECT_DOUBLE_EQ(residual_survival(r, 2.0), 0.0);
}

TEST(ResidualSurvival, NegativeTimeIsCertain) {
  const Residual r{ResidualShape::Uniform, 1.0};
  EXPECT_DOUBLE_EQ(residual_survival(r, -0.5), 1.0);
}

// ---- closed-form cross-checks for prob_first_exceeds ----

TEST(ProbFirstExceeds, UniformVsUniformZeroOffsetSameLength) {
  // A, B ~ U(0, T) independent: P(A > B) = 1/2.
  const Residual a{ResidualShape::Uniform, 3.0};
  EXPECT_NEAR(prob_first_exceeds(a, a, 0.0), 0.5, 1e-9);
}

TEST(ProbFirstExceeds, UniformVsUniformDifferentLengths) {
  // A ~ U(0, 2), B ~ U(0, 1): P(A > B) = 1 - E[B stuff] = 3/4.
  const Residual a{ResidualShape::Uniform, 2.0};
  const Residual b{ResidualShape::Uniform, 1.0};
  EXPECT_NEAR(prob_first_exceeds(a, b, 0.0), 0.75, 1e-9);
}

TEST(ProbFirstExceeds, TriangularVsPointMass) {
  // B degenerate at 0: P(A > offset) = survival of A.
  const Residual a{ResidualShape::Triangular, 2.0};
  const Residual b{ResidualShape::Uniform, 0.0};
  EXPECT_NEAR(prob_first_exceeds(a, b, 1.0), 0.25, 1e-9);
}

TEST(ProbFirstExceeds, ZeroLengthAIsNever) {
  const Residual a{ResidualShape::Uniform, 0.0};
  const Residual b{ResidualShape::Uniform, 5.0};
  EXPECT_DOUBLE_EQ(prob_first_exceeds(a, b, 0.0), 0.0);
}

TEST(ProbFirstExceeds, HugeOffsetIsZero) {
  const Residual a{ResidualShape::Uniform, 1.0};
  const Residual b{ResidualShape::Triangular, 1.0};
  EXPECT_DOUBLE_EQ(prob_first_exceeds(a, b, 10.0), 0.0);
}

TEST(ProbFirstExceeds, MonotoneDecreasingInOffset) {
  const Residual a{ResidualShape::Uniform, 2.0};
  const Residual b{ResidualShape::Triangular, 1.5};
  double prev = 1.1;
  for (double d = 0.0; d <= 3.0; d += 0.25) {
    const double p = prob_first_exceeds(a, b, d);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(ProbFirstExceeds, MonotoneIncreasingInALength) {
  const Residual b{ResidualShape::Uniform, 1.0};
  double prev = -0.1;
  for (double len = 0.5; len <= 5.0; len += 0.5) {
    const Residual a{ResidualShape::Uniform, len};
    const double p = prob_first_exceeds(a, b, 0.2);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

// ---- Monte-Carlo cross-validation ----

double sample(const Residual& r, Rng& rng) {
  const double u = rng.next_double();
  switch (r.shape) {
    case ResidualShape::Uniform:
      return u * r.length;
    case ResidualShape::Triangular:
      // Inverse CDF of density 2(T-x)/T^2: x = T(1 - sqrt(1-u)).
      return r.length * (1.0 - std::sqrt(1.0 - u));
  }
  return 0.0;
}

struct McCase {
  Residual a;
  Residual b;
  double offset;
};

// gtest and ctest name each case by this text ("triangular 3 vs triangular 2
// offset 0.5"). gtest's default byte dump would print the padding after each
// `shape`, which holds whatever the stack held and changes from run to run.
void PrintTo(const Residual& r, std::ostream* os) {
  *os << (r.shape == ResidualShape::Uniform ? "uniform " : "triangular ")
      << r.length;
}

void PrintTo(const McCase& c, std::ostream* os) {
  PrintTo(c.a, os);
  *os << " vs ";
  PrintTo(c.b, os);
  *os << " offset " << c.offset;
}

class ProbFirstExceedsMc : public ::testing::TestWithParam<McCase> {};

TEST_P(ProbFirstExceedsMc, MatchesMonteCarlo) {
  const McCase& c = GetParam();
  Rng rng(12345);
  const int n = 400000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    Rng* r = &rng;
    if (sample(c.a, *r) > sample(c.b, *r) + c.offset) {
      ++hits;
    }
  }
  const double mc = static_cast<double>(hits) / n;
  EXPECT_NEAR(prob_first_exceeds(c.a, c.b, c.offset), mc, 0.004);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProbFirstExceedsMc,
    ::testing::Values(
        McCase{{ResidualShape::Uniform, 1.0}, {ResidualShape::Uniform, 1.0}, 0.0},
        McCase{{ResidualShape::Uniform, 2.0}, {ResidualShape::Triangular, 1.0}, 0.2},
        McCase{{ResidualShape::Triangular, 1.5}, {ResidualShape::Uniform, 0.7}, 0.1},
        McCase{{ResidualShape::Triangular, 3.0}, {ResidualShape::Triangular, 2.0}, 0.5},
        McCase{{ResidualShape::Uniform, 0.8}, {ResidualShape::Triangular, 2.5}, 0.0},
        McCase{{ResidualShape::Triangular, 1.0}, {ResidualShape::Uniform, 1.0}, 1.5}));


// ---- agreement with the composite Simpson sum it replaces ----

// The value prob_first_exceeds is defined by: the 512-step composite Simpson
// sum over B's support, kept here as the reference for its closed form.
double reference_density(const Residual& r, double x) {
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

double reference_prob_first_exceeds(const Residual& a, const Residual& b,
                                    double offset) {
  if (a.length <= 0.0) {
    return 0.0;
  }
  if (b.length <= 0.0) {
    return residual_survival(a, offset);
  }
  constexpr int kSteps = 512;
  const double h = b.length / kSteps;
  double sum = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double y = i * h;
    const double w = (i == 0 || i == kSteps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    sum += w * reference_density(b, y) * residual_survival(a, y + offset);
  }
  return std::clamp(sum * h / 3.0, 0.0, 1.0);
}

// Where y* = a.length - offset >= b.length no panel straddles y*, and the
// Simpson sum is the exact integral of one cubic up to the rounding of its
// 513 terms. A 3-point Gauss-Legendre rule (exact to degree 5) in long double
// gives that integral independently of both.
long double exact_when_no_straddle(const Residual& a, const Residual& b,
                                   double offset) {
  const long double len_a = a.length;
  const long double len_b = b.length;
  const long double half = len_b / 2;
  const long double dx = half * std::sqrt(0.6L);
  const auto g = [&](long double y) {
    const long double v = 1 - (y + offset) / len_a;
    const long double s = a.shape == ResidualShape::Uniform ? v : v * v;
    const long double f = b.shape == ResidualShape::Uniform
                              ? 1 / len_b
                              : 2 * (len_b - y) / (len_b * len_b);
    return f * s;
  };
  return half * (5 * g(half - dx) + 8 * g(half) + 5 * g(half + dx)) / 9;
}

// The reference sum's own rounding reaches ~1e-14; the closed form stays
// within a few ulp of the exact integral.
constexpr double kSimpsonTol = 1e-14;
constexpr double kExactTol = 1e-15;
constexpr std::array<ResidualShape, 2> kShapes{ResidualShape::Uniform,
                                               ResidualShape::Triangular};

TEST(ProbFirstExceeds, MatchesSimpsonSumOnSeededGrid) {
  Rng rng(20261020);
  int cases = 0;
  int exact_cases = 0;
  for (int k = 0; k < 3000; ++k) {
    // Log-uniform lengths over [1e-3, 10], offsets uniform in [0, 2 max].
    const double len_a = 1e-3 * std::pow(1e4, rng.next_double());
    const double len_b = 1e-3 * std::pow(1e4, rng.next_double());
    const double offset = 2.0 * std::max(len_a, len_b) * rng.next_double();
    for (const ResidualShape sa : kShapes) {
      for (const ResidualShape sb : kShapes) {
        const Residual a{sa, len_a};
        const Residual b{sb, len_b};
        const double p = prob_first_exceeds(a, b, offset);
        ASSERT_NEAR(p, reference_prob_first_exceeds(a, b, offset), kSimpsonTol)
            << testing::PrintToString(a) << " vs " << testing::PrintToString(b)
            << " offset " << offset;
        if (len_a - offset >= len_b) {
          const long double exact = exact_when_no_straddle(a, b, offset);
          ASSERT_NEAR(p, static_cast<double>(exact), kExactTol)
              << testing::PrintToString(a) << " vs "
              << testing::PrintToString(b) << " offset " << offset;
          ++exact_cases;
        }
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 10000);
  EXPECT_GE(exact_cases, 1000);
}

TEST(ProbFirstExceeds, MatchesSimpsonSumAtEdges) {
  // b.length = 1 makes the step h = 2^-9 and every node exact, so the
  // offsets below put y* = a.length - offset where each case names it.
  const double h = 1.0 / 512.0;
  struct Edge {
    const char* what;
    double len_a;
    double len_b;
    double offset;
  };
  const Edge edges[] = {
      {"y* on a panel boundary", 0.75, 1.0, 0.25},
      {"y* on a panel boundary, offset 0", 128 * h, 1.0, 0.0},
      {"y* on a panel midpoint", 0.25 + 3 * h, 1.0, 0.25},
      {"y* one step into the first panel", 0.5 + h, 1.0, 0.5},
      {"y* equal to b.length", 1.5, 1.0, 0.5},
      {"y* beyond b.length", 5.0, 1.0, 0.5},
      {"y* beyond b.length, offset 0", 2.0, 1.0, 0.0},
      {"offset 0, a shorter than b", 0.3, 1.0, 0.0},
      {"offset 0, same lengths", 1.0, 1.0, 0.0},
      {"offset equal to a.length", 0.4, 1.0, 0.4},
      {"offset beyond a.length", 0.4, 1.0, 3.0},
      {"zero a.length", 0.0, 1.0, 0.2},
      {"zero b.length", 0.7, 0.0, 0.2},
      {"zero b.length, offset 0", 0.7, 0.0, 0.0},
      {"both lengths zero", 0.0, 0.0, 0.0},
  };
  for (const Edge& e : edges) {
    for (const ResidualShape sa : kShapes) {
      for (const ResidualShape sb : kShapes) {
        const Residual a{sa, e.len_a};
        const Residual b{sb, e.len_b};
        EXPECT_NEAR(prob_first_exceeds(a, b, e.offset),
                    reference_prob_first_exceeds(a, b, e.offset), kSimpsonTol)
            << e.what << ": " << testing::PrintToString(a) << " vs "
            << testing::PrintToString(b);
      }
    }
  }
}

}  // namespace
}  // namespace hls
