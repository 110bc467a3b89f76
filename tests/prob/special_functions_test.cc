#include "prob/special_functions.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace genclus {
namespace {

// Euler-Mascheroni constant.
constexpr double kEulerGamma = 0.57721566490153286;

// Log-gamma arguments from 1e-6 to 1e6: a log-spaced sweep (8 points per
// decade), the half-integers and integers to 2.5, and 1 to 60 in steps
// of 1/8 — the range the strength learner's alpha_k = 1 + sum gamma s
// takes on the benchmark networks.
std::vector<double> LogGammaGrid() {
  std::vector<double> grid;
  for (int i = -48; i <= 48; ++i) grid.push_back(std::pow(10.0, i / 8.0));
  for (double x : {0.5, 1.0, 1.5, 2.0, 2.5}) grid.push_back(x);
  for (int i = 8; i <= 480; ++i) grid.push_back(i / 8.0);
  return grid;
}

TEST(LogGammaTest, BitwiseEqualToStdLgamma) {
  // LogGamma swaps std::lgamma for lgamma_r to keep the sign out of the
  // global signgam; the value must not move by a single bit.
  for (double x : LogGammaGrid()) {
    EXPECT_EQ(LogGamma(x), std::lgamma(x)) << "x=" << x;
  }
}

TEST(LogGammaTest, ConcurrentCallersGetTheSameBits) {
  // Four threads evaluate the grid at once (the strength learner calls
  // LogGamma from every pool worker); each must see the serial values.
  const std::vector<double> grid = LogGammaGrid();
  std::vector<double> serial;
  for (double x : grid) serial.push_back(LogGamma(x));
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<size_t> mismatches(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      size_t bad = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < grid.size(); ++i) {
          if (LogGamma(grid[i]) != serial[i]) ++bad;
        }
      }
      mismatches[t] = bad;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST(DigammaTest, KnownValues) {
  // psi(1) = -gamma.
  EXPECT_NEAR(Digamma(1.0), -kEulerGamma, 1e-12);
  // psi(2) = 1 - gamma.
  EXPECT_NEAR(Digamma(2.0), 1.0 - kEulerGamma, 1e-12);
  // psi(1/2) = -gamma - 2 ln 2.
  EXPECT_NEAR(Digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-12);
}

TEST(DigammaTest, ReferenceValuePins) {
  // High-precision anchors so the strength learner's fused gradient path
  // cannot silently drift: psi(n) = -gamma + H_{n-1} (exact harmonic
  // numbers), and Gauss's theorem for psi(1/4).
  EXPECT_NEAR(Digamma(3.0), -kEulerGamma + 1.5, 1e-13);
  EXPECT_NEAR(Digamma(4.0), -kEulerGamma + 11.0 / 6.0, 1e-13);
  EXPECT_NEAR(Digamma(10.0), -kEulerGamma + 7129.0 / 2520.0, 1e-13);
  EXPECT_NEAR(Digamma(0.25),
              -kEulerGamma - 3.0 * std::log(2.0) - M_PI / 2.0, 1e-12);
}

TEST(DigammaTest, RecurrenceHolds) {
  // psi(x+1) = psi(x) + 1/x across a range of x.
  for (double x : {0.1, 0.7, 1.3, 2.9, 5.5, 10.0, 42.0}) {
    EXPECT_NEAR(Digamma(x + 1.0), Digamma(x) + 1.0 / x, 1e-11) << "x=" << x;
  }
}

TEST(DigammaTest, MatchesNumericalDerivativeOfLogGamma) {
  const double h = 1e-6;
  for (double x : {0.5, 1.0, 2.5, 7.0, 20.0}) {
    const double numeric = (LogGamma(x + h) - LogGamma(x - h)) / (2.0 * h);
    EXPECT_NEAR(Digamma(x), numeric, 1e-6) << "x=" << x;
  }
}

TEST(DigammaTest, AsymptoticallyLogX) {
  const double x = 1e6;
  EXPECT_NEAR(Digamma(x), std::log(x), 1e-6);
}

TEST(TrigammaTest, KnownValues) {
  // psi'(1) = pi^2/6.
  EXPECT_NEAR(Trigamma(1.0), M_PI * M_PI / 6.0, 1e-11);
  // psi'(1/2) = pi^2/2.
  EXPECT_NEAR(Trigamma(0.5), M_PI * M_PI / 2.0, 1e-11);
}

TEST(TrigammaTest, ReferenceValuePins) {
  // psi'(n) = pi^2/6 - sum_{k=1}^{n-1} 1/k^2, and psi'(1/4) = pi^2 + 8G
  // (G = Catalan's constant). Anchors for the fused Hessian path.
  constexpr double kCatalan = 0.91596559417721901505;
  EXPECT_NEAR(Trigamma(2.0), M_PI * M_PI / 6.0 - 1.0, 1e-12);
  EXPECT_NEAR(Trigamma(3.0), M_PI * M_PI / 6.0 - 1.25, 1e-12);
  double inverse_squares = 0.0;
  for (int k = 1; k <= 9; ++k) inverse_squares += 1.0 / (k * k);
  EXPECT_NEAR(Trigamma(10.0), M_PI * M_PI / 6.0 - inverse_squares, 1e-12);
  EXPECT_NEAR(Trigamma(0.25), M_PI * M_PI + 8.0 * kCatalan, 1e-10);
}

TEST(TrigammaTest, RecurrenceHolds) {
  // psi'(x+1) = psi'(x) - 1/x^2.
  for (double x : {0.2, 1.1, 3.3, 8.0, 25.0}) {
    EXPECT_NEAR(Trigamma(x + 1.0), Trigamma(x) - 1.0 / (x * x), 1e-11)
        << "x=" << x;
  }
}

TEST(TrigammaTest, MatchesNumericalDerivativeOfDigamma) {
  const double h = 1e-6;
  for (double x : {0.8, 2.0, 6.0, 15.0}) {
    const double numeric = (Digamma(x + h) - Digamma(x - h)) / (2.0 * h);
    EXPECT_NEAR(Trigamma(x), numeric, 1e-5) << "x=" << x;
  }
}

TEST(TrigammaTest, PositiveEverywhere) {
  for (double x : {0.01, 0.5, 1.0, 10.0, 1000.0}) {
    EXPECT_GT(Trigamma(x), 0.0) << "x=" << x;
  }
}

TEST(LogMultivariateBetaTest, MatchesBetaFunctionForTwo) {
  // B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b).
  const double a = 2.5;
  const double b = 3.5;
  const double expected =
      std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  EXPECT_NEAR(LogMultivariateBeta({a, b}), expected, 1e-12);
}

TEST(LogMultivariateBetaTest, UniformDirichletNormalizer) {
  // B(1,...,1) over K dims = 1 / Gamma(K) ... actually = Gamma(1)^K /
  // Gamma(K) = 1 / (K-1)!.
  EXPECT_NEAR(LogMultivariateBeta({1.0, 1.0, 1.0, 1.0}),
              -std::lgamma(4.0), 1e-12);
}

TEST(LogSumExpTest, BasicValues) {
  EXPECT_NEAR(LogSumExp({0.0, 0.0}), std::log(2.0), 1e-12);
  EXPECT_NEAR(LogSumExp({1.0}), 1.0, 1e-12);
}

TEST(LogSumExpTest, StableForLargeMagnitudes) {
  // Without max-shifting these would overflow / underflow.
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({-1000.0, -1000.0}), -1000.0 + std::log(2.0), 1e-9);
  // A dominated term contributes nothing measurable.
  EXPECT_NEAR(LogSumExp({0.0, -1000.0}), 0.0, 1e-12);
}

TEST(LogSumExpTest, EmptyIsNegativeInfinity) {
  EXPECT_EQ(LogSumExp({}), -std::numeric_limits<double>::infinity());
}

TEST(LogAddExpTest, MatchesLogSumExp) {
  EXPECT_NEAR(LogAddExp(1.0, 2.0), LogSumExp({1.0, 2.0}), 1e-12);
  EXPECT_NEAR(LogAddExp(-50.0, -51.0), LogSumExp({-50.0, -51.0}), 1e-12);
}

TEST(LogAddExpTest, InfinityHandling) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(LogAddExp(-inf, 3.0), 3.0);
  EXPECT_EQ(LogAddExp(-inf, -inf), -inf);
}

// Property sweep: LogSumExp equals the naive sum where the naive sum is
// representable.
class LogSumExpPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(LogSumExpPropertyTest, AgreesWithNaive) {
  const double shift = GetParam();
  std::vector<double> x = {shift, shift - 1.0, shift + 0.5, shift - 3.0};
  double naive = 0.0;
  for (double v : x) naive += std::exp(v);
  EXPECT_NEAR(LogSumExp(x), std::log(naive), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shifts, LogSumExpPropertyTest,
                         ::testing::Values(-5.0, -1.0, 0.0, 1.0, 5.0, 20.0));

}  // namespace
}  // namespace genclus
