#include "spans.h"

#include <cstdio>
#include <fstream>

#include "common.h"

namespace perfbench {

std::int64_t Lane::open(const char* name) {
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(index);
  return index;
}

void Lane::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  stack_.pop_back();
}

Lane* Recorder::lane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(
      std::make_unique<Lane>(static_cast<std::uint32_t>(lanes_.size() + 1)));
  return lanes_.back().get();
}

std::map<std::string, SpanTotals> Recorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& lane : lanes_) {
    const auto& spans = lane->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0)
        child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = out[spans[i].name];
      const double d = spans[i].end_s - spans[i].start_s;
      ++t.count;
      t.total_s += d;
      t.self_s += d - child_s[i];
    }
  }
  return out;
}

bool Recorder::write_chrome(const std::string& path,
                            std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  double t0 = -1.0;
  std::size_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->spans().size();
    for (const Span& s : lane->spans())
      if (t0 < 0.0 || s.start_s < t0) t0 = s.start_s;
  }
  f << "{\"traceEvents\":[";
  std::size_t written = 0;
  char buf[256];
  for (const auto& lane : lanes_) {
    const auto& spans = lane->spans();
    for (std::size_t i = 0; i < spans.size() && written < max_events; ++i) {
      const Span& s = spans[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":\"",
                    written == 0 ? "" : ",", s.name, lane->tid(),
                    (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6);
      f << buf << run_id_;
      std::snprintf(buf, sizeof(buf), "\",\"span\":%zu,\"parent\":%lld}}", i,
                    static_cast<long long>(s.parent));
      f << buf;
      ++written;
    }
  }
  f << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"" << run_id_
    << "\",\"spans_total\":" << total
    << ",\"spans_omitted\":" << (total - written) << "}}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
