#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/export.h"

namespace taser::bench {

namespace {

/// Process-wide report state: print_shape, report_metric and report_label feed it,
/// write_json_report flushes it. Benches are single-threaded at the
/// recording points.
struct ReportState {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, bool>> gates;
};
ReportState& report_state() {
  static ReportState s;
  return s;
}

template <class V>
void upsert(std::vector<std::pair<std::string, V>>& entries,
            const std::string& name, const V& value) {
  for (auto& m : entries)
    if (m.first == name) {
      m.second = value;
      return;
    }
  entries.emplace_back(name, value);
}

}  // namespace

double bench_scale() {
  const char* env = std::getenv("TASER_BENCH_SCALE");
  if (!env) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

std::vector<graph::SyntheticConfig> training_presets() {
  // Scale factors chosen so each dataset lands at ~2.5-4k edges with a
  // few hundred nodes at bench scale 1 — big enough for the noise
  // structure to matter, small enough for 40 training runs on 2 cores.
  const double s = bench_scale();
  std::vector<graph::SyntheticConfig> presets = {
      graph::wikipedia_like(0.02 * s, 16), graph::reddit_like(0.005 * s, 16),
      graph::flights_like(0.0035 * s, 16), graph::movielens_like(0.0035 * s, 16),
      graph::gdelt_like(0.0035 * s, 16)};
  for (auto& p : presets) {
    // Keep the node count proportional to the reduced edge count so the
    // temporal degree stays in a realistic band.
    p.num_src = std::min<std::int64_t>(p.num_src, p.num_edges / 12);
    if (p.num_dst > 0) p.num_dst = std::min<std::int64_t>(p.num_dst, p.num_edges / 25);
  }
  return presets;
}

std::vector<graph::SyntheticConfig> runtime_presets() {
  auto presets = training_presets();
  for (auto& p : presets) {
    if (p.edge_feat_dim > 0) p.edge_feat_dim = 64;
    if (p.node_feat_dim > 0) p.node_feat_dim = 64;
  }
  return presets;
}

std::vector<graph::SyntheticConfig> sampling_presets() {
  const double s = bench_scale();
  // Sampling-only benches afford more edges (no training).
  return {graph::wikipedia_like(0.25 * s, 0), graph::reddit_like(0.06 * s, 0),
          graph::flights_like(0.04 * s, 0), graph::movielens_like(0.04 * s, 0),
          graph::gdelt_like(0.04 * s, 0)};
}

core::TrainerConfig reduced_trainer_config(core::BackboneKind backbone) {
  core::TrainerConfig cfg;
  cfg.backbone = backbone;
  cfg.finder = core::FinderKind::kGpu;
  cfg.batch_size = 128;
  cfg.n_neighbors = 5;
  cfg.m_candidates = 10;
  cfg.hidden_dim = 32;
  cfg.time_dim = 16;
  cfg.sampler_dim = 8;
  cfg.decoder_hidden = 8;
  cfg.lr = 5e-3f;
  cfg.sampler_lr = 1e-2f;
  cfg.max_eval_edges = 200;
  cfg.decoder = backbone == core::BackboneKind::kTgat ? core::DecoderKind::kGatV2
                                                      : core::DecoderKind::kLinear;
  cfg.seed = 33;
  return cfg;
}

double train_and_eval(const graph::Dataset& data, core::TrainerConfig cfg, int epochs) {
  core::Trainer trainer(data, cfg);
  for (int e = 0; e < epochs; ++e) trainer.train_epoch();
  return trainer.evaluate_test_mrr();
}

void print_shape(const std::string& claim, bool held) {
  std::printf("paper-shape: %s — %s\n", claim.c_str(), held ? "HELD" : "NOT HELD");
  report_state().gates.emplace_back(claim, held);
}

void report_metric(const std::string& name, double value) {
  upsert(report_state().metrics, name, value);
}

void report_label(const std::string& name, const std::string& value) {
  upsert(report_state().labels, name, value);
}

int write_json_report(int argc, char** argv, const std::string& bench_name) {
  std::string path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") path = argv[i + 1];
  if (path.empty()) return 0;

  const ReportState& state = report_state();
  std::string out = "{\"schema_version\":1,\"bench\":" +
                    obs::json_quote(bench_name) + ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : state.metrics) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out += obs::json_quote(name) + ":" + buf;
  }
  out += "},\"labels\":{";
  first = true;
  for (const auto& [name, value] : state.labels) {
    if (!first) out += ",";
    first = false;
    out += obs::json_quote(name) + ":" + obs::json_quote(value);
  }
  out += "},\"gates\":{";
  first = true;
  for (const auto& [claim, held] : state.gates) {
    if (!first) out += ",";
    first = false;
    out += obs::json_quote(claim) + (held ? ":true" : ":false");
  }
  out += "},\"telemetry\":" + obs::json_snapshot() + "}";

  // Validate before writing: a malformed report must fail the smoke gate
  // loudly, not poison downstream consumers of the artifact.
  if (!obs::json_valid(out) || !obs::json_has_key(out, "metrics") ||
      !obs::json_has_key(out, "gates") || !obs::json_has_key(out, "telemetry")) {
    std::fprintf(stderr, "json report: generated document failed validation\n");
    return 1;
  }
  if (!obs::write_file(path, out)) {
    std::fprintf(stderr, "json report: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("json report: %s (%zu metrics, %zu gates)\n", path.c_str(),
              state.metrics.size(), state.gates.size());
  return 0;
}

}  // namespace taser::bench
