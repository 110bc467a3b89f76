#include "src/calibrate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>

#include "src/cpuclock.h"
#include "src/stats.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 1 << 16;
constexpr size_t kClusters = 4;
constexpr size_t kMaxDegree = 8;  // row degrees are uniform in [1, 8]
constexpr size_t kKeys = 1 << 16;

}  // namespace

Calibrator::Calibrator() {
  std::mt19937_64 engine(0xca11b);
  row_offsets_.reserve(kRows + 1);
  row_offsets_.push_back(0);
  for (size_t r = 0; r < kRows; ++r) {
    const size_t degree = 1 + engine() % kMaxDegree;
    for (size_t i = 0; i < degree; ++i) {
      columns_.push_back(static_cast<uint32_t>(engine() % kRows));
      weights_.push_back(1.0 + static_cast<double>(engine() % 4));
    }
    row_offsets_.push_back(columns_.size());
  }
  theta_.resize(kRows * kClusters);
  for (size_t i = 0; i < theta_.size(); ++i) {
    theta_[i] = 0.25 + static_cast<double>(engine() % 1000) * 1e-4;
  }
  out_.resize(theta_.size());
  keys_.resize(kKeys);
  for (uint32_t& key : keys_) key = static_cast<uint32_t>(engine());
  scratch_.resize(kKeys);
}

double Calibrator::Pass() {
  const double start = ThreadCpuSeconds();
  // Gather-accumulate: out = W * theta over the CSR, K columns wide.
  for (size_t r = 0; r < kRows; ++r) {
    double acc[kClusters] = {};
    for (uint64_t e = row_offsets_[r]; e < row_offsets_[r + 1]; ++e) {
      const double* row = &theta_[columns_[e] * kClusters];
      for (size_t k = 0; k < kClusters; ++k) acc[k] += weights_[e] * row[k];
    }
    std::memcpy(&out_[r * kClusters], acc, sizeof(acc));
  }
  // Normalize every row through log/exp, back into theta, so each pass
  // reads the previous one's output (the same work every pass).
  double total = 0.0;
  for (size_t r = 0; r < kRows; ++r) {
    const double* in = &out_[r * kClusters];
    double logs[kClusters];
    double top = -INFINITY;
    for (size_t k = 0; k < kClusters; ++k) {
      logs[k] = std::log(in[k] + 1e-12);
      top = std::max(top, logs[k]);
    }
    double sum = 0.0;
    for (size_t k = 0; k < kClusters; ++k) {
      logs[k] = std::exp(logs[k] - top);
      sum += logs[k];
    }
    for (size_t k = 0; k < kClusters; ++k) {
      theta_[r * kClusters + k] = 0.1 + logs[k] / sum;
    }
    total += sum;
  }
  // Copy and sort.
  std::copy(keys_.begin(), keys_.end(), scratch_.begin());
  std::sort(scratch_.begin(), scratch_.end());
  sink_ += total + static_cast<double>(scratch_[kKeys / 2]);
  pass_seconds_.push_back(ThreadCpuSeconds() - start);
  return pass_seconds_.back();
}

size_t Calibrator::Bytes() const {
  return row_offsets_.capacity() * sizeof(uint64_t) +
         (columns_.capacity() + keys_.capacity() + scratch_.capacity()) *
             sizeof(uint32_t) +
         (weights_.capacity() + theta_.capacity() + out_.capacity()) *
             sizeof(double);
}

ParallelCalibrator::ParallelCalibrator(size_t threads)
    : calibrators_(threads) {}

double ParallelCalibrator::Pass() {
  std::vector<double> seconds(calibrators_.size());
  {
    std::vector<std::jthread> helpers;  // joined at the end of the scope
    for (size_t i = 1; i < calibrators_.size(); ++i) {
      helpers.emplace_back([this, &seconds, i] {
        seconds[i] = calibrators_[i].Pass();
      });
    }
    seconds[0] = calibrators_[0].Pass();
  }
  pass_seconds_.push_back(Mean(seconds));
  return pass_seconds_.back();
}

size_t ParallelCalibrator::Bytes() const {
  size_t bytes = 0;
  for (const Calibrator& c : calibrators_) bytes += c.Bytes();
  return bytes;
}

}  // namespace perfbench
