#include "core/batch_pipeline.h"

#include <omp.h>

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/counters.h"
#include "util/check.h"

namespace taser::core {

namespace {
/// Build-pipeline telemetry (lazy; registration/interning lock once).
/// The phase-level spans (phase.NF / phase.AS / phase.FS + .sim twins)
/// are emitted inside BatchBuilder by PhaseScope and nest under
/// build.batch via the per-thread RAII stack.
struct BuildObs {
  obs::SpanName claim = obs::intern_span_name("build.claim");
  obs::SpanName batch = obs::intern_span_name("build.batch");
  obs::SpanName wait = obs::intern_span_name("build.wait");
  obs::Counter batches = obs::counter("taser.build.batches");
  obs::Histogram build_ms = obs::histogram("taser.build.build_ms");
};
const BuildObs& build_obs() {
  static const BuildObs o;
  return o;
}
}  // namespace

BatchPipeline::BatchPipeline(BatchBuilder& builder, int num_hops, bool async,
                             std::size_t depth)
    : builder_(&builder), num_hops_(num_hops), async_(async), ring_(depth + 1) {
  if (async_) workers_.emplace_back([this] { worker_loop(); });
}

BatchPipeline::BatchPipeline(BuilderPool& pool, int num_hops, bool async,
                             std::size_t depth, int workers, int builder_threads)
    : pool_(&pool), num_hops_(num_hops), async_(async), builder_threads_(builder_threads),
      ring_(depth + 1) {
  TASER_CHECK_MSG(!pool.parallel() || pool.num_slots() >= ring_.size(),
                  "BuilderPool has " << pool.num_slots() << " slots but the ring needs "
                      << ring_.size()
                      << " — every in-flight batch needs its own build context");
  // More workers than ring slots can never run concurrently (in-flight ≤
  // capacity), and serial-only pools support exactly one.
  num_workers_requested_ = std::clamp(workers, 1,
                                      std::min(static_cast<int>(ring_.size()),
                                               pool.max_workers()));
  if (async_) {
    workers_.reserve(static_cast<std::size_t>(num_workers_requested_));
    for (int w = 0; w < num_workers_requested_; ++w)
      workers_.emplace_back([this] { worker_loop(); });
  }
}

BatchPipeline::~BatchPipeline() {
  request_stop();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

void BatchPipeline::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_ready_.notify_all();
}

void BatchPipeline::set_build_hook(std::function<void(std::uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  TASER_CHECK_MSG(submitted_ == 0, "set_build_hook after first submit");
  hook_ = std::move(hook);
}

BatchPipeline::Prepared BatchPipeline::run(Job job, std::uint64_t seq) {
  if (hook_) hook_(seq);
  BatchBuilder& builder = pool_ ? pool_->builder_for(seq) : *builder_;
  Prepared prep;
  tensor::ThreadOpCounterSnapshot snap;
  obs::TraceSpan batch_span(build_obs().batch, seq);
  util::WallTimer timer;
  prep.built = builder.build(job.roots, num_hops_, prep.phases, job.rng,
                             job.sampler_snapshot);
  prep.build_wall = timer.seconds();
  prep.sampler_flops = snap.flops();
  prep.sampler_launches = snap.launches();
  build_obs().batches.add(1);
  build_obs().build_ms.observe(prep.build_wall * 1e3);
  return prep;
}

void BatchPipeline::worker_loop() {
  // The main thread's model compute runs full-size OpenMP teams
  // concurrently with our builds. Split the remaining half of the host
  // team across the active builders: propagation is the critical path
  // and keeps its full team (at the cost of oversubscription while
  // builds overlap), while the builds — usually the shorter stage —
  // yield. An explicit builder_threads overrides the heuristic.
  // (Per-thread ICV: affects only this worker's parallel regions;
  // results are thread-count independent.)
  omp_set_num_threads(
      builder_threads_ > 0
          ? builder_threads_
          : std::max(1, omp_get_max_threads() / (2 * num_workers_requested_)));
  for (;;) {
    Job job;
    std::uint64_t seq;
    {
      obs::TraceSpan claim_span(build_obs().claim);
      std::unique_lock<std::mutex> lock(mu_);
      job_ready_.wait(lock, [this] { return stop_ || claimed_ < submitted_; });
      // Stop wins over queued work: jobs that are submitted but not yet
      // claimed are discarded, never built — teardown must not run
      // builds nobody will consume (their snapshots may already be
      // released by an unwinding caller).
      if (stop_) return;
      seq = claimed_++;
      job = std::move(ring_[seq % ring_.size()].job);
    }
    if (pool_) pool_->begin_build(seq, num_hops_);
    Prepared prep;
    std::exception_ptr err = nullptr;
    try {
      prep = run(std::move(job), seq);
    } catch (...) {
      err = std::current_exception();
    }
    BuilderPool::SideState side;
    if (pool_) side = pool_->end_build(seq);
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = ring_[seq % ring_.size()];
      slot.prep = std::move(prep);
      slot.err = err;
      slot.side = side;
      slot.ready = true;
      ++built_;
    }
    result_ready_.notify_all();
  }
}

void BatchPipeline::submit(graph::TargetBatch roots, util::Rng rng,
                           AdaptiveSampler* sampler_snapshot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TASER_CHECK_MSG(submitted_ - consumed_ < ring_.size(),
                    "BatchPipeline ring full: all " << ring_.size() << " slots (depth "
                        << depth() << ") in flight — consume with next() before "
                        "submitting deeper");
    Slot& slot = ring_[submitted_ % ring_.size()];
    slot.job = Job{std::move(roots), rng, sampler_snapshot};
    slot.err = nullptr;
    slot.ready = false;
    ++submitted_;
  }
  if (async_) job_ready_.notify_one();
}

BatchPipeline::Prepared BatchPipeline::next() {
  if (!async_) {
    Job job;
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(mu_);
      TASER_CHECK_MSG(submitted_ > consumed_,
                      "BatchPipeline::next() with nothing submitted");
      seq = consumed_;
      job = std::move(ring_[seq % ring_.size()].job);
      ++consumed_;
      ++claimed_;
      ++built_;  // inline build: the counters stay in lockstep
    }
    // Same slot rotation and positioning as the async path, so sync runs
    // are bit-identical to async ones by construction.
    if (pool_) pool_->begin_build(seq, num_hops_);
    Prepared prep;
    try {
      prep = run(std::move(job), seq);
    } catch (...) {
      if (pool_) pool_->fold(pool_->end_build(seq));
      throw;
    }
    if (pool_) pool_->fold(pool_->end_build(seq));
    return prep;
  }
  std::unique_lock<std::mutex> lock(mu_);
  TASER_CHECK_MSG(submitted_ > consumed_, "BatchPipeline::next() with nothing submitted");
  // Builds may complete out of order under P > 1 workers; batch
  // consumed_ is ready exactly when its own slot is.
  Slot& slot = ring_[consumed_ % ring_.size()];
  {
    obs::TraceSpan wait_span(build_obs().wait, consumed_);
    result_ready_.wait(lock, [&slot] { return slot.ready; });
  }
  Prepared prep = std::move(slot.prep);
  std::exception_ptr err = slot.err;
  BuilderPool::SideState side = slot.side;
  slot.err = nullptr;
  slot.ready = false;
  ++consumed_;
  lock.unlock();
  // Consumption-order fold, even for a failed build: its partial deltas
  // keep the shared ledger consistent.
  if (pool_) pool_->fold(side);
  if (err) std::rethrow_exception(err);
  return prep;
}

std::size_t BatchPipeline::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(submitted_ - consumed_);
}

std::uint64_t BatchPipeline::built_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

}  // namespace taser::core
