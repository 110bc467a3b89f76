// Host-speed calibration. On a shared host the speed of the same code
// drifts between runs (by 15-30% on the VM these figures were taken on),
// and a single thread's speed also switches every few seconds between two
// levels about 1.35x apart, as whatever shares its core comes and goes.
// Every on-CPU figure moves with both. A calibration pass is a fixed
// amount of the benchmark's own work in the mix of the library's hot
// paths (a sparse gather-accumulate over a K-wide dense matrix, log/exp
// normalization, copying and sorting an array). A measured call is timed
// between two passes on the same thread and scaled by
// kCalibrationSeconds / (their mean): the time the call would take on a
// host where one pass takes kCalibrationSeconds. No library code runs in a
// pass, so a change to the library moves the measured figures and not the
// scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// On-CPU seconds of one calibration pass on the reference host.
inline constexpr double kCalibrationSeconds = 0.010;

/// One thread's calibration passes; not shared between threads.
class Calibrator {
 public:
  /// Builds the pass's inputs (deterministic, about 8 MiB).
  Calibrator();

  /// Runs one pass on the calling thread; returns (and keeps) its on-CPU
  /// seconds.
  double Pass();

  /// The factor that scales an on-CPU time taken between passes of
  /// `before_s` and `after_s` seconds to the reference host.
  static double Factor(double before_s, double after_s) {
    return 2.0 * kCalibrationSeconds / (before_s + after_s);
  }

  const std::vector<double>& pass_seconds() const { return pass_seconds_; }

  /// Bytes of the pass's buffers, all resident once built.
  size_t Bytes() const;

 private:
  std::vector<uint64_t> row_offsets_;
  std::vector<uint32_t> columns_;
  std::vector<double> weights_;
  std::vector<double> theta_;
  std::vector<double> out_;
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> scratch_;
  std::vector<double> pass_seconds_;
  double sink_ = 0.0;  // keeps the results live
};

/// Calibration for work that runs on several threads at once: each pass
/// runs one Calibrator pass on every thread together (the calling thread
/// is one of them), so it loads the host as that work does.
class ParallelCalibrator {
 public:
  explicit ParallelCalibrator(size_t threads);

  /// Runs one pass on every thread at once; returns (and keeps) their mean
  /// on-CPU seconds.
  double Pass();

  const std::vector<double>& pass_seconds() const { return pass_seconds_; }

  size_t Bytes() const;

 private:
  std::vector<Calibrator> calibrators_;
  std::vector<double> pass_seconds_;
};

/// Runs `work` between two passes of `calibrator` (a Calibrator or a
/// ParallelCalibrator) and times it with `clock` (a cpuclock.h function). Returns its on-CPU
/// seconds; `*scaled` receives them scaled to the reference host.
template <typename CalibratorT, typename ClockFn, typename Work>
double CalibratedCpuSeconds(CalibratorT& calibrator, ClockFn clock,
                            Work&& work, double* scaled) {
  const double before = calibrator.Pass();
  const double start = clock();
  work();
  const double seconds = clock() - start;
  *scaled = seconds * Calibrator::Factor(before, calibrator.Pass());
  return seconds;
}

}  // namespace perfbench
