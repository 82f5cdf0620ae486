// Span recording for the traced run. The driver wraps each call into a
// layer's public API (compile, open, push_batch_for, poll_batch, snapshot,
// finish, client push/poll/open) in a Scope; spans are kept in memory per
// thread (one Lane each, no locking on the hot path), carry the run id
// shared by every span of one workload run, and are written out as Chrome
// trace-event JSON when the run ends. With a null Lane a Scope is a single
// predictable branch, which is what the untraced runs use.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into the same lane; -1 = root
};

class Lane {
 public:
  explicit Lane(std::uint32_t tid) : tid_(tid) {}
  std::int64_t open(const char* name);
  void close(std::int64_t index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class Scope {
 public:
  Scope(Lane* lane, const char* name)
      : lane_(lane), index_(lane != nullptr ? lane->open(name) : -1) {}
  ~Scope() {
    if (lane_ != nullptr) lane_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Lane* lane_;
  std::int64_t index_;
};

// Total and self time per span name. Self time is a span's duration minus
// the part its child spans cover.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Recorder {
 public:
  explicit Recorder(std::string run_id) : run_id_(std::move(run_id)) {}
  // A fresh lane for one thread; owned by the recorder.
  Lane* lane();
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  // Chrome trace-event JSON ("X" events, microseconds). At most
  // `max_events` spans are written; the number left out is recorded in the
  // file's metadata. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, std::size_t max_events) const;

 private:
  std::string run_id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace perfbench
