// Serving workloads over one paper-shape GraphMixer checkpoint and a
// movielens-like streaming graph: serve-query (open-loop Poisson link
// queries over a fixed rate ladder, light event stream, then a closed-loop
// capacity phase) and serve-ingest (heavy event stream beside light
// queries). One generator thread sends every operation at its scheduled
// time and polls for completions; the engine runs 2 workers plus its
// ingest thread, at OMP_NUM_THREADS=1.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <exception>
#include <thread>

#include "graph/synthetic.h"
#include "harness.h"
#include "models/graphmixer.h"
#include "serve/checkpoint.h"
#include "serve/epoch_manager.h"
#include "serve/serving_engine.h"
#include "tensor/counters.h"

namespace taserbench {

namespace {

using taser::graph::NodeId;
using taser::graph::Time;
using taser::serve::LinkQuery;

constexpr std::int64_t kFeatDim = 266;
constexpr double kLatencyLimitMs = 25.0;  ///< p99 limit for serve.slo_qps
constexpr double kCapacityBlockS = 0.5;   ///< closed-loop capacity is a median over blocks

struct Rung {
  double qps;    ///< offered query rate
  double share;  ///< share of the run's duration
};

struct ServeShape {
  taser::graph::SyntheticConfig data;
  std::vector<Rung> ladder;    ///< run in order; rung 0 is the nominal rate
  double event_per_query = 0;  ///< events per query (serve-query)
  double event_rate = 0;       ///< events/s (serve-ingest; 0 = per-query ratio)
  std::int64_t compact_threshold = 0;
  double duration_s = 0;  ///< the ladder's length
  double capacity_s = 0;  ///< closed-loop capacity phase after the ladder (0 = none)

  double rung_start(std::size_t k) const {
    double t = 0;
    for (std::size_t i = 0; i < k; ++i) t += ladder[i].share * duration_s;
    return t;
  }
  double rung_end(std::size_t k) const { return rung_start(k + 1); }
};

ServeShape shape_for(const Args& a) {
  ServeShape s;
  s.data = taser::graph::movielens_like(a.tiny ? 0.002 : 0.02, kFeatDim);
  s.data.seed = a.seed;
  s.duration_s = a.tiny ? 1.0 : a.seconds;
  if (a.workload == "serve-query") {
    // The nominal rate holds for half the ladder; the rungs above it find
    // serve.slo_qps. The capacity phase after it keeps the engine saturated.
    // At about a third of capacity, the nominal rung's latency moved half
    // as much as at 1500 q/s when other processes took CPU time.
    s.ladder = {{1000, 0.5}, {1500, 0.1}, {2000, 0.1}, {2500, 0.1}, {3000, 0.1}, {3500, 0.1}};
    s.duration_s = 0.6 * s.duration_s;
    s.capacity_s = a.tiny ? 1.0 : 0.4 * a.seconds;
    s.event_per_query = 1.0 / 8.0;
    s.compact_threshold = 4096;
  } else {
    s.ladder = {{200, 1.0}};
    s.event_rate = 10000;
    s.compact_threshold = 10000;
  }
  if (a.tiny) {
    for (Rung& r : s.ladder) r.qps /= 4;
    s.event_rate /= 4;
  }
  return s;
}

// time_scale is pinned to the base graph's mean inter-event gap (as in
// training): left at 0, each session would derive it from the graph as it
// stood when the session was built, and sessions built at different stream
// positions would encode ∆t differently.
taser::serve::SessionConfig session_config(const Args& a, const taser::graph::Dataset& d) {
  taser::serve::SessionConfig sc;
  sc.time_scale = d.mean_inter_event_gap();
  sc.backbone = taser::core::BackboneKind::kGraphMixer;
  sc.n_neighbors = 10;
  sc.hidden_dim = a.tiny ? 16 : 100;
  sc.time_dim = a.tiny ? 16 : 100;
  sc.policy = taser::sampling::FinderPolicy::kMostRecent;
  sc.seed = a.seed ^ 0x5e55ULL;
  return sc;
}

/// One scheduled operation of the open-loop stream.
struct Op {
  double at_s;   ///< offset from stream start
  bool event;    ///< ingest() when true, submit() otherwise
  int rung;      ///< ladder rung (queries)
  NodeId u, v;
};

/// All inputs, generated from the seed before any timing starts.
struct Stream {
  std::vector<Op> ops;
  std::vector<std::vector<float>> feat_rows;  ///< event feature rows, cycled
  std::vector<LinkQuery> probes;              ///< correctness probe set
};

Stream make_stream(const ServeShape& s, const taser::graph::Dataset& d, std::uint64_t seed) {
  taser::util::Rng rng(seed ^ 0x10adULL);
  Stream st;
  auto src = [&] { return d.src[rng.next_below(static_cast<std::uint64_t>(d.num_edges()))]; };
  auto dst = [&] {
    return d.dst_begin + static_cast<NodeId>(
                             rng.next_below(static_cast<std::uint64_t>(d.dst_end - d.dst_begin)));
  };
  for (std::size_t k = 0; k < s.ladder.size(); ++k) {
    // Poisson arrivals: exponential gaps at the rung's rate.
    const double q_rate = s.ladder[k].qps;
    const double e_rate = s.event_rate > 0 ? s.event_rate : q_rate * s.event_per_query;
    const double total = q_rate + e_rate;
    double t = s.rung_start(k);
    const double end = s.rung_end(k);
    while (true) {
      t += -std::log(1.0 - rng.next_double()) / total;
      if (t >= end) break;
      const bool event = rng.next_double() * total < e_rate;
      st.ops.push_back(Op{t, event, static_cast<int>(k), src(), dst()});
    }
  }
  for (int i = 0; i < 16; ++i) {
    std::vector<float> row(static_cast<std::size_t>(kFeatDim));
    for (float& x : row) x = rng.next_uniform(-1.f, 1.f);
    st.feat_rows.push_back(std::move(row));
  }
  for (int i = 0; i < 64; ++i) st.probes.push_back(LinkQuery{src(), dst(), 0, 0});
  return st;
}

struct QueryRecord {
  double sched_s = 0, done_s = -1;
  int rung = 0;
  bool ok = false;
};

/// Results of driving one stream through the engine.
struct LoadResult {
  std::vector<QueryRecord> queries;
  std::vector<double> event_sent_s;      ///< when each event's ingest() was called
  std::vector<double> event_visible_ms;  ///< ingest() call → counted as published
  std::vector<double> late_ms;           ///< actual send − scheduled send
  std::vector<double> rung_backlog;      ///< queries outstanding at each rung's end
  std::vector<std::uint64_t> rung_allocs;  ///< session arena growths by each rung's end
  double elapsed_s = 0;                  ///< stream start → last completion
  std::uint64_t events = 0;
};

/// The single generator thread: sends each op at its scheduled time
/// (open loop — a stalled engine does not slow the schedule) and, between
/// sends, polls outstanding futures and the published-event watermark.
/// Latency runs from the scheduled send time.
LoadResult drive(taser::serve::ServingEngine& engine,
                 taser::serve::GraphEpochManager& graphs, const Stream& st,
                 const ServeShape& shape, Time& stream_t) {
  LoadResult res;
  struct Pending {
    std::size_t idx;
    std::future<float> fut;
    bool done = false;
  };
  // Oldest first. Workers complete requests close to submission order, so
  // only the oldest kPollWindow are polled: past capacity the backlog runs
  // to thousands, and polling all of it would starve the engine's threads.
  constexpr std::size_t kPollWindow = 128;
  std::deque<Pending> pending;
  std::vector<double>& event_sent = res.event_sent_s;
  const std::uint64_t base_published = graphs.events_published();
  std::size_t next = 0, next_visible = 0, rung_closed = 0;
  const double t0 = now_s() + 0.005;
  while (next < st.ops.size() || !pending.empty() || next_visible < event_sent.size()) {
    double now = now_s() - t0;
    while (next < st.ops.size() && st.ops[next].at_s <= now) {
      const Op& op = st.ops[next];
      res.late_ms.push_back((now - op.at_s) * 1e3);
      stream_t += 1.0;  // strictly increasing stream time
      if (op.event) {
        event_sent.push_back(now);
        engine.ingest(op.u, op.v, stream_t, st.feat_rows[event_sent.size() % st.feat_rows.size()]);
      } else {
        res.queries.push_back(QueryRecord{op.at_s, -1, op.rung, false});
        pending.push_back(Pending{res.queries.size() - 1,
                                  engine.submit(LinkQuery{op.u, op.v, stream_t, 0})});
      }
      ++next;
      now = now_s() - t0;
    }
    while (rung_closed < shape.ladder.size() && now >= shape.rung_end(rung_closed)) {
      res.rung_backlog.push_back(static_cast<double>(pending.size()));
      res.rung_allocs.push_back(engine.stats().workspace_alloc_events);
      ++rung_closed;
    }
    for (std::size_t i = 0; i < std::min(pending.size(), kPollWindow); ++i) {
      Pending& p = pending[i];
      if (p.done || p.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      QueryRecord& q = res.queries[p.idx];
      q.done_s = now;
      try {
        q.ok = std::isfinite(p.fut.get());
      } catch (const std::exception&) {
        q.ok = false;
      }
      p.done = true;
    }
    while (!pending.empty() && pending.front().done) pending.pop_front();
    const std::uint64_t published = graphs.events_published() - base_published;
    while (next_visible < event_sent.size() && published > next_visible) {
      res.event_visible_ms.push_back((now - event_sent[next_visible]) * 1e3);
      ++next_visible;
    }
    res.elapsed_s = now;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  while (res.rung_backlog.size() < shape.ladder.size()) {
    res.rung_backlog.push_back(0);
    res.rung_allocs.push_back(engine.stats().workspace_alloc_events);
  }
  res.events = event_sent.size();
  return res;
}

/// Closed-loop capacity: cycles through the stream's operations with no
/// schedule, keeping `window` queries outstanding (two full micro-batches
/// per worker) and sending the stream's events between them, for
/// `duration_s`. Returns the completion rate (1/s) of each block of about
/// kCapacityBlockS; the events sent are added to `events`.
std::vector<double> capacity_blocks(taser::serve::ServingEngine& engine, const Stream& st,
                                    double duration_s, std::size_t window, Time& stream_t,
                                    std::uint64_t& events) {
  std::deque<std::future<float>> outstanding;
  std::vector<double> done_s;
  std::size_t i = 0;
  const double t0 = now_s();
  auto resolve_oldest = [&] {
    bool ok = false;
    try {
      ok = std::isfinite(outstanding.front().get());
    } catch (const std::exception&) {
    }
    outstanding.pop_front();
    if (ok) done_s.push_back(now_s() - t0);
  };
  while (now_s() - t0 < duration_s) {
    while (outstanding.size() < window) {
      const Op& op = st.ops[i++ % st.ops.size()];
      stream_t += 1.0;
      if (op.event) {
        engine.ingest(op.u, op.v, stream_t, st.feat_rows[i % st.feat_rows.size()]);
        ++events;
      } else {
        outstanding.push_back(engine.submit(LinkQuery{op.u, op.v, stream_t, 0}));
      }
    }
    resolve_oldest();
  }
  while (!outstanding.empty()) resolve_oldest();
  // Each block's rate is its completions over the time between its first
  // and last completion.
  std::vector<std::vector<double>> blocks(
      std::max<std::size_t>(1, static_cast<std::size_t>(duration_s / kCapacityBlockS)));
  const double block_s = duration_s / static_cast<double>(blocks.size());
  for (double t : done_s) {
    const auto k = static_cast<std::size_t>(t / block_s);
    if (k < blocks.size()) blocks[k].push_back(t);
  }
  std::vector<double> rates;
  for (const std::vector<double>& b : blocks)
    if (b.size() > 1) rates.push_back(static_cast<double>(b.size() - 1) / (b.back() - b.front()));
  return rates;
}

/// Latency (ms) of queries on `rung` scheduled in [from_s, to_s); failed
/// queries count as missing any limit, so they enter as +infinity.
std::vector<double> latencies(const LoadResult& res, int rung, double from_s = 0,
                              double to_s = INFINITY) {
  std::vector<double> out;
  for (const QueryRecord& q : res.queries)
    if (q.rung == rung && q.sched_s >= from_s && q.sched_s < to_s)
      out.push_back(q.ok ? (q.done_s - q.sched_s) * 1e3 : INFINITY);
  return out;
}

/// The 99th percentile of each whole second in [from_s, to_s), median over
/// the seconds. One host stall lands in one second, so it moves this far
/// less than the run-wide p99, which no usable bound could hold on
/// a shared host.
template <typename SamplesIn>
double windowed_p99(SamplesIn samples_in, double from_s, double to_s) {
  std::vector<double> p99s;
  for (double t = from_s; t + 1.0 <= to_s + 1e-9; t += 1.0) p99s.push_back(quantile(samples_in(t, t + 1.0), 0.99));
  if (p99s.empty()) p99s.push_back(quantile(samples_in(from_s, to_s), 0.99));
  return median(p99s);
}

std::string bits_of(const std::vector<float>& v) {
  std::string s;
  for (float x : v) {
    std::uint32_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    s += std::to_string(b) + ",";
  }
  return s;
}

void traced_probes(const Args& a, const taser::graph::Dataset& d,
                   taser::serve::GraphEpochManager& graphs, const std::string& ckpt,
                   Time& stream_t, Report& r);

}  // namespace

void run_serve(const Args& a, Report& r) {
  const ServeShape shape = shape_for(a);
  taser::serve::EngineConfig ec;
  ec.num_workers = 2;
  ec.max_batch = 32;
  ec.max_delay_ms = 2.0;
  const std::string ckpt = a.workdir + "/" + a.workload + ".ckpt";

  // Set-up: generate the graph, write a paper-shape GraphMixer checkpoint,
  // build the epoch manager and engine, and load the checkpoint into every
  // worker. Timed kSetupRepeats times before the load and as many after it.
  std::unique_ptr<taser::graph::Dataset> data;
  std::unique_ptr<taser::serve::GraphEpochManager> graphs;
  std::unique_ptr<taser::serve::ServingEngine> engine;
  std::vector<double> setup_s;
  taser::serve::SessionConfig sc;
  auto set_up = [&]() {
    engine.reset();
    graphs.reset();
    data.reset();
    const double t0 = now_s();
    data = std::make_unique<taser::graph::Dataset>(taser::graph::generate_synthetic(shape.data));
    sc = session_config(a, *data);
    {
      taser::models::ModelConfig mc;
      mc.edge_feat_dim = data->edge_feat_dim;
      mc.hidden_dim = sc.hidden_dim;
      mc.time_dim = sc.time_dim;
      mc.num_neighbors = sc.n_neighbors;
      taser::util::Rng init(a.seed ^ 0xc4e7ULL);
      taser::models::GraphMixerModel model(mc, init);
      taser::models::EdgePredictor predictor(sc.hidden_dim, init);
      taser::serve::save_servable(model, predictor, ckpt);
    }
    taser::serve::EpochConfig epc;
    epc.compact_threshold = shape.compact_threshold;
    graphs = std::make_unique<taser::serve::GraphEpochManager>(*data, epc);
    engine = std::make_unique<taser::serve::ServingEngine>(*graphs, sc, ec);
    engine->load_checkpoint(ckpt);
    return now_s() - t0;
  };
  for (int i = 0; i < (a.trace ? 1 : kSetupRepeats); ++i) setup_s.push_back(set_up());
  r.note("graph_edges", static_cast<double>(data->num_edges()));

  Time stream_t = data->ts.back();
  ServeShape run_shape = shape;
  if (a.trace) {
    // The traced run only needs the spans of a steady load: the nominal
    // rate for half the duration, as two rungs so the second one shows the
    // steady-state arena growth.
    run_shape.ladder = {{shape.ladder[0].qps, 0.5}, {shape.ladder[0].qps, 0.5}};
    run_shape.duration_s = shape.duration_s / 2;
  }
  const Stream st = make_stream(run_shape, *data, a.seed);
  if (a.trace) {
    obs::clear_spans();
    obs::set_trace_enabled(true);
  }
  LoadResult res = drive(*engine, *graphs, st, run_shape, stream_t);
  std::vector<double> capacity;
  if (run_shape.capacity_s > 0 && !a.trace)
    capacity = capacity_blocks(*engine, st, run_shape.capacity_s,
                               static_cast<std::size_t>(2 * ec.max_batch * ec.num_workers),
                               stream_t, res.events);
  engine->drain();
  obs::set_trace_enabled(false);
  if (a.trace) r.note("load_dropped_spans", static_cast<double>(obs::dropped_spans()));
  const taser::serve::ServingStats ss = engine->stats();

  // --- correctness ---------------------------------------------------------
  const std::uint64_t resolved = ss.requests + ss.rejected + ss.expired + ss.faulted;
  r.check("serve.accounting", resolved == ss.submitted,
          std::to_string(resolved) + " resolved of " + std::to_string(ss.submitted));
  r.check("serve.events_visible", ss.events_ingested == res.events &&
                                      graphs->events_published() >= res.events,
          std::to_string(ss.events_ingested) + " visible of " + std::to_string(res.events));
  {
    // Probe set through the engine vs a direct keyed session on the same
    // epoch (no ingest in between): scores must be bit-equal.
    std::vector<LinkQuery> probes = st.probes;
    for (LinkQuery& q : probes) q.t = stream_t;
    const std::uint64_t seq0 = engine->stats().submitted;
    std::vector<std::future<float>> futs;
    for (const LinkQuery& q : probes) futs.push_back(engine->submit(q));
    std::vector<float> served;
    for (auto& f : futs) served.push_back(f.get());
    std::vector<std::uint64_t> keys(probes.size());
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = seq0 + i;
    taser::serve::InferenceSession direct(*graphs, sc);
    direct.load_checkpoint(ckpt);
    std::vector<float> expect;
    direct.score_links(probes, keys.data(), expect);
    r.check("serve.probe_bit_equal", bits_of(served) == bits_of(expect),
            std::to_string(probes.size()) + " probes");
  }

  const std::uint64_t failed_q = ss.rejected + ss.expired + ss.faulted + ss.events_rejected +
                                 ss.events_faulted;
  const std::uint64_t attempted = ss.submitted + res.events;
  r.count_ops(attempted, failed_q);
  r.metric("failed_share", static_cast<double>(failed_q) / static_cast<double>(attempted), "ratio");
  r.metric("loadgen.late_ms", quantile(res.late_ms, 0.99), "ms");

  if (!a.trace) {
    const std::vector<double> lat = latencies(res, 0);
    r.metric("serve.p50_ms", quantile(lat, 0.5), "ms");
    r.metric("serve.p99_ms", quantile(lat, 0.99), "ms");
    r.note("serve.latency_samples", static_cast<double>(lat.size()));
    double slo = 0;
    for (std::size_t k = 0; k < shape.ladder.size(); ++k) {
      const double p99 = quantile(latencies(res, static_cast<int>(k)), 0.99);
      // Backlog must not grow: at the rung's end fewer queries are
      // outstanding than two full micro-batches per worker.
      const bool held = p99 <= kLatencyLimitMs &&
                        res.rung_backlog[k] <= 2.0 * static_cast<double>(ec.max_batch * ec.num_workers);
      r.note("serve.rung" + std::to_string(static_cast<int>(shape.ladder[k].qps)) + ".p99_ms", p99);
      if (held) slo = std::max(slo, shape.ladder[k].qps);
    }
    if (a.workload == "serve-query") {
      r.metric("serve.slo_qps", slo, "q/s");
      r.note("serve.latency_limit_ms", kLatencyLimitMs);
      r.metric("latency_p50_ms", quantile(lat, 0.5), "ms");
      r.metric("latency_p99_ms",
               windowed_p99([&](double f, double t) { return latencies(res, 0, f, t); }, 0,
                            shape.rung_end(0)),
               "ms");
      // The engine's capacity: median closed-loop completion rate.
      r.metric("throughput_per_s", median(capacity), "1/s");
      r.note("serve.capacity_blocks", static_cast<double>(capacity.size()));
    } else {
      const std::vector<double>& vis = res.event_visible_ms;
      auto visible_in = [&](double f, double t) {
        std::vector<double> out;
        for (std::size_t i = 0; i < vis.size(); ++i)
          if (res.event_sent_s[i] >= f && res.event_sent_s[i] < t) out.push_back(vis[i]);
        return out;
      };
      r.metric("ingest.visible_p50_ms", quantile(vis, 0.5), "ms");
      r.metric("ingest.visible_p99_ms", quantile(vis, 0.99), "ms");
      r.metric("latency_p50_ms", quantile(vis, 0.5), "ms");
      r.metric("latency_p99_ms", windowed_p99(visible_in, 0, shape.duration_s), "ms");
      // Events made visible per wall second. The offered 10000 events/s
      // sets it, so it falls only once ingest cannot keep up: the rate per
      // second of publish() work, which the engine sets, moved by nearly half
      // between sets of runs minutes apart on a shared 4-vCPU host.
      r.metric("throughput_per_s", static_cast<double>(res.events) / res.elapsed_s, "1/s");
      r.note("ingest.visible_samples", static_cast<double>(vis.size()));
    }
  } else {
    const std::vector<double> queue = span_durations_ms("serve.queue");
    r.metric("serve.queue_wait_p50_ms", quantile(queue, 0.5), "ms");
    r.metric("serve.queue_wait_p99_ms", quantile(queue, 0.99), "ms");
    r.metric("serve.batch_occupancy", ss.mean_batch_occupancy, "count");
    r.metric("serve.epoch.retire_wait_ms", mean(span_durations_ms("epoch.retire_wait")), "ms");
    r.metric("serve.epoch.events_per_publish",
             ss.epochs_published ? static_cast<double>(ss.events_ingested) / ss.epochs_published : 0,
             "count");
    r.metric("serve.epoch.compactions", static_cast<double>(ss.compactions), "count");
    r.metric("core.workspace.alloc_events",
             static_cast<double>(res.rung_allocs.back() - res.rung_allocs.front()), "count");
    engine->shutdown();
    traced_probes(a, *data, *graphs, ckpt, stream_t, r);
  }
  if (!a.trace)
    for (int i = 0; i < kSetupRepeats; ++i) setup_s.push_back(set_up());
  r.metric("setup_s", median(setup_s), "s");
  r.note("setup_repeats", static_cast<double>(setup_s.size()));
}

namespace {

// Direct calls on the workload's own graph and checkpoint, each under a
// bench.serve_op root span, alternating tracing off and on:
// InferenceSession::score_links at micro-batch 1, 8 and 32 (program spans
// phase.NF / phase.FS / phase.PP nest inside), then
// GraphEpochManager::ingest + publish cycles.
void traced_probes(const Args& a, const taser::graph::Dataset& d,
                   taser::serve::GraphEpochManager& graphs, const std::string& ckpt,
                   Time& stream_t, Report& r) {
  taser::serve::InferenceSession session(graphs, session_config(a, d));
  session.load_checkpoint(ckpt);
  taser::util::Rng rng(a.seed ^ 0x9b0bULL);
  auto query = [&] {
    return LinkQuery{d.src[rng.next_below(static_cast<std::uint64_t>(d.num_edges()))],
                     d.dst_begin + static_cast<NodeId>(rng.next_below(
                                       static_cast<std::uint64_t>(d.dst_end - d.dst_begin))),
                     stream_t, 0};
  };
  std::vector<double> untraced_ms, traced_ms;
  std::vector<float> out;
  std::uint64_t key = 1u << 30;
  const int reps = a.tiny ? 4 : 40;
  double flops32 = 0, launches32 = 0, pp_ms32 = 0;
  obs::clear_spans();
  for (int b : {1, 8, 32}) {
    std::vector<LinkQuery> qs;
    for (int i = 0; i < b; ++i) qs.push_back(query());
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(b));
    std::vector<double> ms;
    for (int rep = 0; rep < reps; ++rep) {
      for (auto& k : keys) k = key++;
      const bool traced = rep % 2 == 1;
      obs::set_trace_enabled(traced);
      const double pp0 = session.phases().total(taser::util::Phase::kPP);
      taser::tensor::ThreadOpCounterSnapshot ops;
      const double t0 = now_s();
      {
        obs::TraceSpan root(obs::intern_span_name("bench.serve_op"));
        obs::TraceSpan sp(obs::intern_span_name("serve.session.score_links"));
        session.score_links(qs, keys.data(), out);
      }
      const double dt = (now_s() - t0) * 1e3;
      obs::set_trace_enabled(false);
      (traced ? traced_ms : untraced_ms).push_back(dt);
      ms.push_back(dt);
      if (b == 32) {
        flops32 += static_cast<double>(ops.flops());
        launches32 += static_cast<double>(ops.launches());
        pp_ms32 += (session.phases().total(taser::util::Phase::kPP) - pp0) * 1e3;
      }
    }
    r.metric("serve.session.score_ms.b" + std::to_string(b), median(ms), "ms");
  }
  r.metric("tensor.gflop_per_batch", flops32 / reps / 1e9, "GFLOP");
  r.metric("tensor.launches_per_batch", launches32 / reps, "count");
  r.metric("tensor.gflops", pp_ms32 > 0 ? flops32 / 1e9 / (pp_ms32 / 1e3) : 0, "GFLOP/s");

  // Ingest + publish cycles straight on the epoch manager (the engine is
  // shut down; its graph stays): 512 events per publish for serve-ingest,
  // 16 for serve-query's light stream.
  const std::vector<float> row(static_cast<std::size_t>(kFeatDim), 0.5f);
  const int per_cycle = a.workload == "serve-ingest" ? 512 : 16;
  const int cycles = a.tiny ? 4 : 20;
  std::vector<double> ingest_us, publish_ms;
  for (int c = 0; c < cycles; ++c) {
    std::vector<std::pair<NodeId, NodeId>> evs;
    for (int i = 0; i < per_cycle; ++i) {
      const LinkQuery q = query();
      evs.emplace_back(q.src, q.dst);
    }
    const bool traced = c % 2 == 1;
    obs::set_trace_enabled(traced);
    const double t0 = now_s();
    {
      obs::TraceSpan root(obs::intern_span_name("bench.serve_op"));
      {
        obs::TraceSpan sp(obs::intern_span_name("serve.epoch.ingest"));
        const double i0 = now_s();
        for (const auto& [u, v] : evs) graphs.ingest(u, v, stream_t += 1.0, row);
        ingest_us.push_back((now_s() - i0) * 1e6 / per_cycle);
      }
      obs::TraceSpan sp(obs::intern_span_name("serve.epoch.publish"));
      const double p0 = now_s();
      graphs.publish();
      publish_ms.push_back((now_s() - p0) * 1e3);
    }
    const double dt = (now_s() - t0) * 1e3;
    obs::set_trace_enabled(false);
    (traced ? traced_ms : untraced_ms).push_back(dt);
  }
  r.metric("serve.epoch.ingest_us", median(ingest_us), "us");
  r.metric("serve.epoch.publish_ms", median(publish_ms), "ms");

  const SpanBreakdown b = breakdown("bench.serve_op");
  const auto calls = b.calls.find("serve.session.score_links");
  const double score_calls =
      calls == b.calls.end() ? 1.0 : static_cast<double>(calls->second);
  r.metric("sampling.finder.sample_ms", b.self("phase.NF") / score_calls, "ms");
  r.note("score_probe_reps", static_cast<double>(reps));
  // The two probe families have very different sizes; reconcile them
  // together (both are blocking paths of this workload).
  report_reconciliation(r, b, untraced_ms, traced_ms);
}

}  // namespace

}  // namespace taserbench
