// In-memory spans recorded from the benchmark's own files around calls
// into the library's layers. Spans carry a name, start and end (steady
// clock, nanoseconds since the tracer was created), the id of the span
// that caused them and a request id; they are written out once, as Chrome
// trace-event JSON, when the benchmark ends. A disabled tracer records
// nothing and every call is a branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t NowNs() const;
  int64_t ToNs(std::chrono::steady_clock::time_point t) const;

  /// A fresh span id, so a span can be named as a parent before it ends.
  int64_t NewId();

  /// Records a finished span under `id` (NewId() when -1); returns the id
  /// (-1 when disabled).
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t request = -1, int tid = 0,
              int64_t id = -1);

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeJson(const std::string& path) const;

  /// Self time per span name: the span's duration minus the part of it
  /// its child spans cover, summed over every span of that name.
  std::map<std::string, double> SelfSeconds() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Times the enclosing scope as one span of `tracer`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent = -1,
             int tid = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

  /// Ends the span now; returns its duration in seconds.
  double End();

 private:
  Tracer* tracer_;
  std::string name_;
  int64_t parent_;
  int tid_;
  int64_t id_;
  int64_t start_ns_;
  bool ended_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
