#include "src/trace.h"

#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return ToNs(std::chrono::steady_clock::now());
}

int64_t Tracer::ToNs(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::NewId() {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

int64_t Tracer::Add(const std::string& name, int64_t start_ns,
                    int64_t end_ns, int64_t parent, int64_t request, int tid,
                    int64_t id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0) id = next_id_++;
  spans_.push_back({name, start_ns, end_ns, id, parent, request, tid});
  return id;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_ns.find(s.id);
    const int64_t covered = it == child_ns.end() ? 0 : it->second;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"request\": %lld}}%s\n",
                 s.name.c_str(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int64_t parent,
                       int tid)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      tid_(tid),
      id_(tracer->NewId()),
      start_ns_(tracer->NowNs()) {}

ScopedSpan::~ScopedSpan() { End(); }

double ScopedSpan::End() {
  if (!ended_) {
    ended_ = true;
    const int64_t end_ns = tracer_->NowNs();
    seconds_ = static_cast<double>(end_ns - start_ns_) / 1e9;
    tracer_->Add(name_, start_ns_, end_ns, parent_, -1, tid_, id_);
  }
  return seconds_;
}

}  // namespace perfbench
