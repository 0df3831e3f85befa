#include "record.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "obs/telemetry.h"
#include "tensor/kernels.h"

namespace e2e {

using privim::JsonNumber;
using privim::JsonQuote;

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Samples(const std::string& metric, size_t n) {
  samples_[metric] = n;
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

void Report::Note(const std::string& why) {
  if (notes_.size() < 8 && !why.empty()) notes_.push_back(why);
}

void Report::Operation(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    Note(why);
  }
}

void Report::CheckFailed(const std::string& why) {
  ++check_failures_;
  Note(why);
}

std::string Report::ToJson(const Options& opts) const {
  std::ostringstream o;
  o << "{\"workload\": " << JsonQuote(opts.workload)
    << ", \"seed\": " << opts.seed
    << ", \"seconds\": " << JsonNumber(opts.seconds)
    << ", \"trace\": " << (opts.trace ? 1 : 0)
    << ", \"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    o << (first ? "" : ", ") << JsonQuote(name) << ": {\"value\": "
      << JsonNumber(v.value) << ", \"unit\": " << JsonQuote(v.unit) << "}";
    first = false;
  }
  o << "}, \"samples\": {";
  first = true;
  for (const auto& [name, n] : samples_) {
    o << (first ? "" : ", ") << JsonQuote(name) << ": " << n;
    first = false;
  }
  o << "}, \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": " << JsonQuote(CpuModel()) << ", \"isa\": "
    << JsonQuote(privim::simd::IsaName(privim::simd::ResolveIsa()))
    << ", \"spin_ms\": " << JsonNumber(spin_ms_) << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    o << (first ? "" : ", ") << JsonQuote(key) << ": " << JsonQuote(value);
    first = false;
  }
  o << "}, \"spans\": {";
  first = true;
  for (const auto& [name, s] : spans_) {
    o << (first ? "" : ", ") << JsonQuote(name) << ": {\"count\": "
      << s.count << ", \"total_ms\": " << JsonNumber(s.total_ms)
      << ", \"self_ms\": " << JsonNumber(s.self_ms) << "}";
    first = false;
  }
  o << "}, \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    o << (i ? ", " : "") << JsonQuote(notes_[i]);
  }
  o << "]}";
  return o.str();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double SpinProbeMs() {
  std::vector<double> ms;
  volatile uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 0;
    for (uint64_t i = 0; i < 2'000'000; ++i) x = SubSeed(x, i);
    sink = x;
    ms.push_back(Seconds(t0, Clock::now()) * 1e3);
  }
  (void)sink;
  return Median(ms);
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace e2e
