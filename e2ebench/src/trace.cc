#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace e2e {

Tracer::Tracer(bool enabled, Clock::time_point origin)
    : enabled_(enabled), origin_(origin) {}

int64_t Tracer::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, uint64_t id,
                    uint32_t lane) {
  if (!enabled_) return -1;
  return AddAt(name, Seconds(origin_, start), Seconds(origin_, end), parent,
               id, lane);
}

int64_t Tracer::Open(const std::string& name, Clock::time_point start,
                     int64_t parent, uint64_t id, uint32_t lane) {
  return Add(name, start, start, parent, id, lane);
}

void Tracer::Close(int64_t span, Clock::time_point end) {
  if (!enabled_ || span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[span].end = Seconds(origin_, end);
}

int64_t Tracer::AddAt(const std::string& name, double start, double end,
                      int64_t parent, uint64_t id, uint32_t lane) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, id, lane});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanStats> Tracer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ComputeSpanStats(spans_);
}

std::map<std::string, SpanStats> ComputeSpanStats(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, SpanStats> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>>& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0;
    double reach = s.start;
    for (const auto& [begin, end] : c) {
      const double lo = std::max(begin, reach);
      const double hi = std::min(end, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, s.end));
    }
    SpanStats& st = stats[s.name];
    ++st.count;
    st.total_ms += (s.end - s.start) * 1e3;
    st.self_ms += (s.end - s.start - covered) * 1e3;
  }
  return stats;
}

std::pair<std::vector<OpTiming>, std::vector<OpTiming>> SplitTracedQueries(
    Tracer& tracer, const std::vector<OpTiming>& ops, double offset,
    const std::function<bool(size_t)>& traced) {
  std::pair<std::vector<OpTiming>, std::vector<OpTiming>> split;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpTiming& op = ops[i];
    if (!traced(i)) {
      split.first.push_back(op);
      continue;
    }
    split.second.push_back(op);
    if (!op.ok) continue;
    const uint32_t lane = 10 + static_cast<uint32_t>(i % kCollectors);
    const int64_t q = tracer.AddAt("query", offset + op.due, offset + op.done,
                                   -1, i, lane);
    tracer.AddAt("load.send_lag", offset + op.due, offset + op.sent, q, i,
                 lane);
  }
  return split;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"span\": %zu, \"parent\": %lld}}%s\n",
                  s.name.c_str(), s.lane, s.start * 1e6,
                  (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.id), i,
                  static_cast<long long>(s.parent),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
