#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench.h"

namespace xvm::perf {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Report::OpFailed(const std::string& what) {
  ++failed_;
  if (log_) std::cerr << "perfbench: operation failed: " << what << "\n";
}

void Report::CheckFailed(const std::string& what) {
  ++failed_;
  ++check_failures_;
  if (log_) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (i > 0) out += ", ";
    out += Quoted(name) + ": {\"value\": " + Num(vu.first) +
           ", \"unit\": " + Quoted(vu.second) + "}";
  }
  return out + "}}";
}

int Tracer::Begin(const std::string& name, int parent) {
  spans_.push_back(Span{name, parent, NowMs(), 0, {}});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  spans_[id].dur_ms = NowMs() - spans_[id].start_ms;
}

void Tracer::Child(int parent, const std::string& name, double dur_ms) {
  spans_.push_back(Span{name, parent, spans_[parent].start_ms, dur_ms, {}});
}

void Tracer::Attr(int id, const std::string& key, double value) {
  spans_[id].attrs.emplace_back(key, value);
}

Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write span file " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": " << Quoted(s.name)
        << ", \"start_ms\": " << Num(s.start_ms - t0)
        << ", \"dur_ms\": " << Num(s.dur_ms) << ", \"attrs\": {";
    for (size_t a = 0; a < s.attrs.size(); ++a) {
      out << (a ? ", " : "") << Quoted(s.attrs[a].first) << ": "
          << Num(s.attrs[a].second);
    }
    out << "}}\n";
  }
  return out ? Status::Ok() : Status::Internal("short write to " + path);
}

}  // namespace xvm::perf
