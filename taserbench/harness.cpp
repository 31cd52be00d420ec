#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>

namespace taserbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, {ok, detail}});
}

void Report::note(const std::string& name, const std::string& value) {
  notes_[name] = json_string(value);
}

void Report::note(const std::string& name, double value) {
  notes_[name] = json_number(value);
}

bool Report::all_checks_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second.first; });
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}, \"checks\": [";
  first = true;
  for (const auto& [name, res] : checks_) {
    os << (first ? "" : ", ") << "{\"name\": " << json_string(name)
       << ", \"ok\": " << (res.first ? "true" : "false")
       << ", \"detail\": " << json_string(res.second) << "}";
    first = false;
  }
  os << "], \"notes\": {";
  first = true;
  for (const auto& [name, literal] : notes_) {
    os << (first ? "" : ", ") << json_string(name) << ": " << literal;
    first = false;
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

double SpanBreakdown::self(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

double SpanBreakdown::total(const std::string& name) const {
  const auto it = total_ms.find(name);
  return it == total_ms.end() ? 0.0 : it->second;
}

SpanBreakdown breakdown(const std::string& root_name) {
  const std::vector<obs::SpanRecord> spans = obs::collect_spans();
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  // Self time: duration minus the union of child intervals clipped to the
  // parent (children on one thread never overlap, but clipping keeps a
  // stray cross-thread child from counting twice).
  auto self_ns = [&](const obs::SpanRecord& s) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t c : children[s.span_id]) {
      const auto& k = spans[c];
      const std::int64_t a = std::max(k.t0_ns, s.t0_ns), b = std::min(k.t1_ns, s.t1_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    return static_cast<double>(s.t1_ns - s.t0_ns - covered);
  };

  SpanBreakdown out;
  for (const auto& root : spans) {
    if (obs::span_name(root.name_id) != root_name) continue;
    ++out.roots;
    out.roots_ms += static_cast<double>(root.t1_ns - root.t0_ns) / 1e6;
    out.remainder_ms += self_ns(root) / 1e6;
    std::vector<std::size_t> stack = children[root.span_id];
    while (!stack.empty()) {
      const auto& s = spans[stack.back()];
      stack.pop_back();
      const std::string name = obs::span_name(s.name_id);
      const double self = self_ns(s) / 1e6;
      out.self_ms[name] += self;
      out.total_ms[name] += static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
      ++out.calls[name];
      out.attributed_ms += self;
      for (std::size_t c : children[s.span_id]) stack.push_back(c);
    }
  }
  return out;
}

std::vector<double> span_durations_ms(const std::string& name) {
  std::vector<double> out;
  for (const auto& s : obs::collect_spans())
    if (obs::span_name(s.name_id) == name)
      out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e6);
  return out;
}

void report_reconciliation(Report& r, const SpanBreakdown& b,
                           const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms) {
  const double n = std::max<std::int64_t>(1, b.roots);
  const double share = b.roots_ms > 0 ? b.remainder_ms / b.roots_ms : 0;
  r.metric("trace.e2e_ms", b.roots_ms / n, "ms");
  r.metric("trace.unattributed_ms", b.remainder_ms / n, "ms");
  r.metric("trace.unattributed_share", share, "ratio");
  const double untraced = mean(untraced_ms), traced = mean(traced_ms);
  r.metric("trace.overhead_share", untraced > 0 ? traced / untraced - 1.0 : 0, "ratio");
  r.metric("trace.dropped_spans", static_cast<double>(obs::dropped_spans()), "count");
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "layers %.3f ms + unattributed %.3f ms vs traced %.3f ms over %lld ops",
                b.attributed_ms, b.remainder_ms, b.roots_ms,
                static_cast<long long>(b.roots));
  const bool adds_up = std::abs(b.attributed_ms + b.remainder_ms - b.roots_ms) <=
                       1e-6 * std::max(1.0, b.roots_ms) + 1e-3;
  r.check("trace.layers_add_up", b.roots > 0 && adds_up && share <= kReconcileTolerance,
          detail);
}

}  // namespace taserbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: taserbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  taserbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::stoull(value());
    else if (a == "--seconds") args.seconds = std::stod(value());
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--tiny") args.tiny = true;
    else if (a == "--workdir") args.workdir = value();
    else return usage();
  }
  taserbench::Report report;
  try {
    if (args.workload == "train-adaptive" || args.workload == "train-baseline") {
      taserbench::run_train(args, report);
    } else if (args.workload == "serve-query" || args.workload == "serve-ingest") {
      taserbench::run_serve(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "taserbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", taserbench::peak_rss_mb(), "MB");
  report.note("telemetry_compiled_in", TASER_TELEMETRY_ENABLED ? "on" : "off");
  report.note("failpoints_compiled_in", TASER_FAILPOINTS_ENABLED ? "on" : "off");
  report.note("build_type", TASERBENCH_BUILD_TYPE);
  report.note("gemm_isa", TASERBENCH_GEMM_ISA);
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.all_checks_ok() ? 0 : 1;
}
