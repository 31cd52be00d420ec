// Training workloads: train-adaptive (TASER: adaptive mini-batch selection
// and neighbor sampling on GraphMixer) and train-baseline (non-adaptive
// TGAT). End-to-end numbers come from core::Trainer::train_epoch; the
// traced run replays training steps through the public pieces the trainer
// is built from (BatchBuilder::build, TgnnModel::compute_embeddings,
// backward, nn::Adam::step, build_sample_loss, MiniBatchSelector) with a
// span around each call.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "harness.h"
#include "tensor/counters.h"
#include "tensor/ops.h"

namespace taserbench {

namespace {

namespace tt = taser::tensor;
using taser::core::Trainer;
using taser::core::TrainerConfig;
using taser::graph::Dataset;

struct TrainShape {
  taser::graph::SyntheticConfig data;
  TrainerConfig trainer;
  int warmup_epochs = 0;  ///< untimed: caches fill, the sampler's θ gets its first updates
  int timed_epochs = 0;   ///< per repeat
  int repeats = 1;        ///< timed repeats: fresh set-up + warm-up + timed epochs
};

// Paper dims (§IV-A): hidden, time, sampler and decoder dims 100, n = 10,
// m = 25. Batch sizes, graph scale and epoch counts are fixed constants;
// only the number of repeats follows --seconds, never measured speed.
//
// Learning rates are the paper's 1e-4. At the TrainerConfig default of
// 1e-3 the adaptive sampler's θ drifts into subnormal floats after 2 to
// more than 25 updates depending on the seed, and the sample-loss step then
// costs 2-6x more per batch from seed to seed: no bound could hold on that
// regime. train-adaptive times batches 3-6 of a fresh trainer (after the
// sampler's first θ updates); a run repeats that window on fresh trainers.
TrainShape shape_for(const Args& a) {
  const bool adaptive = a.workload == "train-adaptive";
  TrainShape s;
  s.data = taser::graph::wikipedia_like(a.tiny ? 0.02 : 0.1, /*feat_dim_override=*/172);
  s.data.seed = a.seed;
  TrainerConfig& tc = s.trainer;
  tc.finder = taser::core::FinderKind::kGpu;
  tc.cache_ratio = 0.2;
  tc.prefetch_depth = 2;
  tc.seed = a.seed;
  tc.batch_size = a.tiny ? 32 : 100;
  tc.max_eval_edges = a.tiny ? 10 : 30;
  tc.lr = tc.sampler_lr = 1e-4f;
  if (a.tiny) {
    tc.hidden_dim = tc.time_dim = tc.sampler_dim = tc.decoder_hidden = 16;
  }
  if (adaptive) {
    tc.backbone = taser::core::BackboneKind::kGraphMixer;
    tc.decoder = taser::core::DecoderKind::kLinear;
    tc.ada_batch = true;
    tc.ada_neighbor = true;
    tc.prefetch_mode = taser::core::PrefetchMode::kStaleTheta;
    tc.max_iters_per_epoch = 2;
  } else {
    tc.backbone = taser::core::BackboneKind::kTgat;
    tc.prefetch_mode = taser::core::PrefetchMode::kSyncOnly;
    // One builder worker: builds take ~2% of a step here, so a second
    // worker adds nothing but contention, which on 4 vCPUs moved this
    // workload's throughput by up to a quarter from run to run.
    tc.builder_workers = 1;
    tc.max_iters_per_epoch = 4;
  }
  s.warmup_epochs = 1;
  s.timed_epochs = adaptive ? 2 : 3;
  // About 5 s (train-adaptive) or 7 s (train-baseline) per repeat on a
  // 4-core Xeon at OMP_NUM_THREADS=2.
  const double repeat_s = adaptive ? 5 : 7;
  s.repeats = a.trace ? 1 : a.tiny ? 2 : std::max(2, static_cast<int>(std::lround(a.seconds / repeat_s)));
  return s;
}

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

void traced_steps(const Args& a, const Dataset& data, Trainer& trainer, Report& r);

}  // namespace

void run_train(const Args& a, Report& r) {
  const TrainShape shape = shape_for(a);
  const TrainerConfig& tc = shape.trainer;
  const std::int64_t iters = tc.max_iters_per_epoch;

  std::unique_ptr<Dataset> data;
  std::unique_ptr<Trainer> trainer;
  std::vector<double> setup_s, batch_ms, repeat_max_ms, eval_ms;
  std::vector<std::string> mrr_bits;
  std::uint64_t batches = 0, bad_batches = 0;
  auto run_epoch = [&]() {
    const taser::core::EpochStats st = trainer->train_epoch();
    batches += static_cast<std::uint64_t>(st.iterations);
    if (!std::isfinite(st.mean_loss)) bad_batches += static_cast<std::uint64_t>(st.iterations);
  };

  // Set-up: generate the graph from the seed and construct the trainer
  // (T-CSR, finder, cache, models, sampler). Timed kSetupRepeats times
  // before the timed work, at the start of every repeat, and kSetupRepeats
  // times after it; every repeat below starts from a fresh one.
  auto set_up = [&]() {
    trainer.reset();
    data.reset();
    const double t0 = now_s();
    data = std::make_unique<Dataset>(taser::graph::generate_synthetic(shape.data));
    trainer = std::make_unique<Trainer>(*data, tc);
    return now_s() - t0;
  };
  for (int i = 0; i < (a.trace ? 1 : kSetupRepeats); ++i) setup_s.push_back(set_up());

  // Repeat 0 is untimed: the first training epochs of a process run up to
  // 25% slower (first-touch page faults while the allocator grows), which
  // no later trainer in a long-running process pays.
  for (int rep = 0; rep <= shape.repeats; ++rep) {
    if (rep > 0) setup_s.push_back(set_up());

    for (int e = 0; e < shape.warmup_epochs; ++e) run_epoch();
    if (a.trace) break;
    if (rep == 0) {
      for (int e = 0; e < shape.timed_epochs; ++e) run_epoch();
      continue;
    }
    double worst = 0;
    for (int e = 0; e < shape.timed_epochs; ++e) {
      const double e0 = now_s();
      run_epoch();
      batch_ms.push_back((now_s() - e0) * 1e3 / static_cast<double>(iters));
      worst = std::max(worst, batch_ms.back());
    }
    repeat_max_ms.push_back(worst);
    // Evaluate on the first and last repeat: identical seeds must give a
    // bit-identical validation MRR.
    if (rep == 1 || rep == shape.repeats) {
      const double v0 = now_s();
      const double mrr = trainer->evaluate_val_mrr();
      eval_ms.push_back((now_s() - v0) * 1e3);
      mrr_bits.push_back(hex_bits(mrr));
      r.metric("train.val_mrr", mrr, "ratio");
      r.check("train.val_mrr_finite", std::isfinite(mrr) && mrr > 0, mrr_bits.back());
    }
  }
  r.note("warmup_batches_per_repeat", static_cast<double>(shape.warmup_epochs * iters));
  r.note("batch_size", static_cast<double>(tc.batch_size));
  r.note("graph_edges", static_cast<double>(data->num_edges()));

  if (!a.trace) {
    // Per-epoch wall ms per batch; medians keep one slow epoch (a host
    // hiccup) from moving the run's figures.
    const std::int64_t B = std::min<std::int64_t>(tc.batch_size, data->num_train());
    const double edges_per_s = static_cast<double>(B) * 1e3 / median(batch_ms);
    r.metric("throughput_per_s", edges_per_s, "1/s");
    r.metric("train.edges_per_s", edges_per_s, "edges/s");
    r.metric("latency_p50_ms", median(batch_ms), "ms");
    // Too few epochs for a 99th percentile: the slowest epoch of each
    // repeat, median over repeats.
    r.metric("latency_p99_ms", median(repeat_max_ms), "ms");
    std::string samples;
    for (double ms : batch_ms) samples += std::to_string(ms).substr(0, 7) + " ";
    r.note("latency_samples_ms", samples);
    r.metric("eval.mrr_ms", median(eval_ms), "ms");
    r.note("train.val_mrr_bits", mrr_bits.back());
    r.check("train.val_mrr_repeats_bit_identical",
            std::all_of(mrr_bits.begin(), mrr_bits.end(),
                        [&](const std::string& b) { return b == mrr_bits.front(); }),
            std::to_string(mrr_bits.size()) + " evaluations");
    for (int i = 0; i < kSetupRepeats; ++i) setup_s.push_back(set_up());
  } else {
    traced_steps(a, *data, *trainer, r);
  }
  r.metric("setup_s", median(setup_s), "s");
  r.note("setup_repeats", static_cast<double>(setup_s.size()));
  r.count_ops(batches, bad_batches);
  r.metric("failed_share", batches ? static_cast<double>(bad_batches) / batches : 0, "ratio");
  r.check("train.losses_finite", bad_batches == 0,
          std::to_string(bad_batches) + " of " + std::to_string(batches) + " batches");
}

namespace {

// The traced run. Part 1: one Trainer epoch with tracing on, read through
// the program's own spans (build.wait) and its EpochStats ledger. Part 2:
// training steps replayed call by call, alternating tracing off and on so
// the overhead is measured on the same stream of batches. Part 3: one
// validation MRR evaluation, timed.
void traced_steps(const Args& a, const Dataset& data, Trainer& trainer, Report& r) {
  const TrainerConfig& tc = trainer.config();
  const std::int64_t B = std::min<std::int64_t>(tc.batch_size, data.num_train());
  const double iters = static_cast<double>(tc.max_iters_per_epoch);

  obs::clear_spans();
  obs::set_trace_enabled(true);
  const taser::core::EpochStats st = trainer.train_epoch();
  obs::set_trace_enabled(false);
  const std::vector<double> waits = span_durations_ms("build.wait");
  r.metric("core.pipeline.wait_ms", std::accumulate(waits.begin(), waits.end(), 0.0) / iters, "ms");
  r.metric("gpusim.modeled_nf_ms", st.nf_sim * 1e3 / iters, "ms");
  r.metric("gpusim.modeled_as_ms", st.as_sim * 1e3 / iters, "ms");
  r.metric("gpusim.modeled_fs_ms", st.fs_sim * 1e3 / iters, "ms");
  r.metric("gpusim.modeled_pp_ms", st.pp_sim * 1e3 / iters, "ms");
  taser::cache::GpuFeatureCache* cache = trainer.features().cache();
  r.metric("cache.hit_rate",
           cache && !cache->history().empty() ? cache->history().back().hit_rate() : 0,
           "ratio");
  r.check("train.losses_finite.traced_epoch", std::isfinite(st.mean_loss));


  // Part 2: replayed steps on the trainer's own finder, feature source,
  // models and sampler, with optimizers of the same settings.
  taser::models::TgnnModel& model = trainer.model();
  taser::models::EdgePredictor& predictor = trainer.predictor();
  taser::core::AdaptiveSampler* sampler = trainer.sampler();
  taser::core::MiniBatchSelector* selector = trainer.selector();
  model.set_training(true);
  predictor.set_training(true);
  if (sampler) sampler->set_training(true);
  trainer.finder().begin_epoch();

  taser::core::BuilderConfig bc;
  bc.n = tc.n_neighbors;
  bc.m = tc.m_candidates;
  bc.policy = tc.policy;
  bc.time_scale = data.mean_inter_event_gap();
  taser::core::BatchBuilder builder(data, trainer.finder(), trainer.features(),
                                    trainer.device(), sampler, bc);
  auto params = model.parameters();
  const auto pp = predictor.parameters();
  params.insert(params.end(), pp.begin(), pp.end());
  taser::nn::Adam opt(params, tc.lr);
  std::unique_ptr<taser::nn::Adam> opt_sampler;
  if (sampler) opt_sampler = std::make_unique<taser::nn::Adam>(sampler->parameters(), tc.sampler_lr);

  taser::util::Rng rng(a.seed ^ 0x7ace5ULL);
  const taser::graph::NodeId dst_lo = data.dst_end > data.dst_begin ? data.dst_begin : 0;
  const taser::graph::NodeId dst_hi = data.dst_end > data.dst_begin
                                          ? data.dst_end
                                          : static_cast<taser::graph::NodeId>(data.num_nodes);
  taser::util::PhaseAccumulator phases;
  const int steps = a.tiny ? 4 : std::max(4, 2 * static_cast<int>(std::lround(a.seconds * 0.4)));
  std::int64_t cursor = 0;
  std::uint64_t alloc_after_first = 0;
  std::vector<double> untraced_ms, traced_ms;
  double pp_flops = 0, step_flops = 0, step_launches = 0;
  bool finite = true;

  obs::clear_spans();
  for (int s = 0; s < steps; ++s) {
    const bool traced = s % 2 == 1;
    obs::set_trace_enabled(traced);
    const double t0 = now_s();
    taser::tensor::OpCounterSnapshot step_ops;
    {
      obs::TraceSpan root(obs::intern_span_name("bench.step"));
      std::vector<std::int64_t> edge_ids;
      {
        obs::TraceSpan sp(obs::intern_span_name("core.selector"));
        if (selector) {
          edge_ids = selector->sample_batch(B);
        } else {
          for (std::int64_t k = 0; k < B; ++k) edge_ids.push_back((cursor + k) % data.num_train());
          cursor = (cursor + B) % data.num_train();
        }
      }
      taser::graph::TargetBatch roots;
      for (auto e : edge_ids) roots.push(data.src[e], data.ts[e]);
      for (auto e : edge_ids) roots.push(data.dst[e], data.ts[e]);
      for (auto e : edge_ids)
        roots.push(dst_lo + static_cast<taser::graph::NodeId>(rng.next_below(
                                static_cast<std::uint64_t>(dst_hi - dst_lo))),
                   data.ts[e]);
      const std::int64_t b = static_cast<std::int64_t>(edge_ids.size());

      taser::core::BatchBuilder::Built built;
      {
        obs::TraceSpan sp(obs::intern_span_name("core.builder.build"));
        built = builder.build(roots, model.num_hops(), phases, rng);
      }
      taser::tensor::OpCounterSnapshot pp_ops;
      tt::Tensor loss, pos_logits;
      {
        obs::TraceSpan sp(obs::intern_span_name("models.forward"));
        tt::Tensor h = model.compute_embeddings(built.inputs);
        std::vector<std::int64_t> si(b), di(b), ni(b);
        for (std::int64_t i = 0; i < b; ++i) {
          si[i] = i;
          di[i] = b + i;
          ni[i] = 2 * b + i;
        }
        tt::Tensor h_src = tt::index_select0(h, si);
        pos_logits = predictor.forward(h_src, tt::index_select0(h, di));
        tt::Tensor neg_logits = predictor.forward(h_src, tt::index_select0(h, ni));
        tt::Tensor logits = tt::concat_dim0({tt::reshape(pos_logits, {b, 1}),
                                             tt::reshape(neg_logits, {b, 1})});
        std::vector<float> targets(static_cast<std::size_t>(2 * b), 0.f);
        std::fill(targets.begin(), targets.begin() + b, 1.f);
        loss = tt::bce_with_logits_mean(tt::reshape(logits, {2 * b}),
                                        tt::Tensor::from_vector({2 * b}, std::move(targets)));
      }
      finite = finite && std::isfinite(loss.item());
      {
        obs::TraceSpan sp(obs::intern_span_name("models.backward"));
        loss.backward();
        taser::nn::clip_grad_norm(params, tc.grad_clip);
      }
      pp_flops += static_cast<double>(pp_ops.flops());
      {
        obs::TraceSpan sp(obs::intern_span_name("nn.adam_step"));
        opt.step();
      }
      if (selector) {
        obs::TraceSpan sp(obs::intern_span_name("core.selector"));
        for (std::int64_t i = 0; i < b; ++i) selector->update(edge_ids[i], pos_logits.data()[i]);
      }
      if (sampler) {
        obs::TraceSpan sp(obs::intern_span_name("core.sample_loss"));
        tt::Tensor sl = taser::core::build_sample_loss(model.records(), built.selections,
                                                       tc.sample_loss);
        if (sl.defined()) {
          finite = finite && std::isfinite(sl.item());
          sl.backward();
          auto sp_params = sampler->parameters();
          taser::nn::clip_grad_norm(sp_params, tc.grad_clip);
          opt_sampler->step();
          opt_sampler->zero_grad();
          sampler->bump_generation();
        }
      }
      {
        obs::TraceSpan sp(obs::intern_span_name("nn.adam_step"));
        opt.zero_grad();
      }
    }
    step_flops += static_cast<double>(step_ops.flops());
    step_launches += static_cast<double>(step_ops.launches());
    (traced ? traced_ms : untraced_ms).push_back((now_s() - t0) * 1e3);
    if (s == 1) alloc_after_first = builder.workspace_alloc_events();
  }
  obs::set_trace_enabled(false);

  const SpanBreakdown b = breakdown("bench.step");
  const double n = static_cast<double>(std::max<std::int64_t>(1, b.roots));
  const double all = static_cast<double>(steps);
  r.metric("core.sampler.select_ms", b.self("phase.AS") / n, "ms");
  r.metric("core.sample_loss_ms", b.self("core.sample_loss") / n, "ms");
  r.metric("core.selector_ms", b.self("core.selector") / n, "ms");
  r.metric("core.builder.build_ms", b.self("core.builder.build") / n, "ms");
  r.metric("sampling.finder.sample_ms", b.self("phase.NF") / n, "ms");
  r.metric("sampling.finder.modeled_ms", phases.total(taser::util::Phase::kNFSim) * 1e3 / all, "ms");
  r.metric("cache.gather_ms", b.self("phase.FS") / n, "ms");
  r.metric("cache.modeled_ms", phases.total(taser::util::Phase::kFSSim) * 1e3 / all, "ms");
  r.metric("models.forward_ms", b.self("models.forward") / n, "ms");
  r.metric("models.backward_ms", b.self("models.backward") / n, "ms");
  r.metric("nn.adam_step_ms", b.self("nn.adam_step") / n, "ms");
  r.metric("tensor.gflop_per_batch", step_flops / all / 1e9, "GFLOP");
  r.metric("tensor.launches_per_batch", step_launches / all, "count");
  const double pp_wall_s = (b.total("models.forward") + b.total("models.backward")) / 1e3;
  // PP FLOPs were counted on every step, the PP wall only on traced ones.
  r.metric("tensor.gflops", pp_wall_s > 0 ? pp_flops / all * n / pp_wall_s / 1e9 : 0, "GFLOP/s");
  r.metric("core.workspace.alloc_events",
           static_cast<double>(builder.workspace_alloc_events() - alloc_after_first), "count");
  report_reconciliation(r, b, untraced_ms, traced_ms);
  r.check("train.losses_finite.replayed_steps", finite);
  r.note("replayed_steps", all);

  const double e0 = now_s();
  const double mrr = trainer.evaluate_val_mrr();
  r.metric("eval.mrr_ms", (now_s() - e0) * 1e3, "ms");
  r.check("train.val_mrr_finite", std::isfinite(mrr));
}

}  // namespace

}  // namespace taserbench
