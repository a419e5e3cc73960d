#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/durable.hpp"
#include "obs/resource.hpp"
#include "stats/bench_report.hpp"
#include "stats/json.hpp"

namespace perfbench {

Inputs inputs_in(const std::string& dir) {
  return {dir + "/ba.txt", dir + "/ba.bin", dir + "/gab.txt"};
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << '\n';
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

void Report::merge(const Report& other) {
  metrics_.insert(metrics_.end(), other.metrics_.begin(),
                  other.metrics_.end());
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

std::string Report::result_line() const {
  namespace json = frontier::json;
  std::string out = "{\"correct\":" + json::boolean(correct()) +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    out += json::quote(metrics_[i].name) +
           ":{\"value\":" + json::number(metrics_[i].value) +
           ",\"unit\":" + json::quote(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void LatencyLog::add(double v) {
  ++count_;
  buf_.push_back(v);
  if (buf_.size() < window_) return;
  p50s_.push_back(median(buf_));
  p90s_.push_back(quantile(buf_, 0.90));
  buf_.clear();
}

double LatencyLog::p50() const {
  return p50s_.empty() ? median(buf_) : median(p50s_);
}

double LatencyLog::p90() const {
  return p90s_.empty() ? quantile(buf_, 0.90) : median(p90s_);
}

double peak_rss_mib() {
  return static_cast<double>(frontier::process_usage().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

std::uint64_t fingerprint(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    h = frontier::fnv1a_bytes(h, &v, sizeof v);
  }
  return h & ((std::uint64_t{1} << 52) - 1);
}

std::uint32_t SpanLog::name_id(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::open_at(std::uint32_t name, std::uint64_t t) {
  std::int64_t slot = -1;
  if (spans_.size() < cap_) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().slot;
    slot = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, parent, t, t});
  }
  stack_.push_back({name, t, slot});
}

void SpanLog::close_at(std::uint64_t t) {
  const Open top = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - top.start;
  totals_[top.name].total_ns += dur;
  if (!stack_.empty()) totals_[stack_.back().name].child_ns += dur;
  if (top.slot >= 0) spans_[static_cast<std::size_t>(top.slot)].end = t;
}

SpanTotal SpanLog::total(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

void SpanLog::clear() {
  std::fill(totals_.begin(), totals_.end(), SpanTotal{});
  spans_.clear();
  stack_.clear();
}

std::size_t SpanLog::append_jsonl(std::string& out,
                                  std::size_t id_base) const {
  namespace json = frontier::json;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent < 0 ? "null"
                     : std::to_string(id_base +
                                      static_cast<std::size_t>(s.parent));
    out += "{\"id\":" + std::to_string(id_base + i) +
           ",\"name\":" + json::quote(names_[s.name]) +
           ",\"thread\":" + std::to_string(thread_) +
           ",\"start_ns\":" + std::to_string(s.start) +
           ",\"end_ns\":" + std::to_string(s.end) +
           ",\"parent\":" + parent + "}\n";
  }
  return spans_.size();
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::string out;
  std::size_t next_id = 0;
  for (const SpanLog* log : logs) next_id += log->append_jsonl(out, next_id);
  frontier::durable_write_file(path, out);
}

}  // namespace perfbench
