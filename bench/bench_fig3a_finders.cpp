// Fig. 3(a) — total sampling time per (capped) epoch of a 2-layer TGAT
// fan-out for the three neighbor-finder generations, across the five
// datasets and neighbor budgets 5..25. CPU finders report measured wall
// time plus the modeled H2D transfer of the sampled indices; the GPU
// finder reports modeled device time (see ROADMAP.md open item 1).
//
// Paper claims: TASER GPU finder ≫ TGL CPU finder ≫ original finder,
// with 37–56x GPU-vs-TGL at 25 neighbors (46x average).
#include <cstdio>
#include <memory>
#include <omp.h>

#include "common.h"
#include "gpusim/device.h"
#include "sampling/gpu_finder.h"
#include "sampling/orig_finder.h"
#include "sampling/tgl_finder.h"

using namespace taser;
using namespace taser::sampling;

namespace {

/// One "epoch" of 2-hop sampling: chronological root batches, then a
/// hop-2 batch from the sampled neighbors (the TGAT access pattern).
struct EpochCost {
  double wall = 0;  ///< measured host seconds
  double sim = 0;   ///< modeled device seconds (kernels + index H2D)
  double total() const { return wall + sim; }
};

EpochCost run_epoch(NeighborFinder& finder, gpusim::Device& device,
                    const graph::Dataset& data, std::int64_t budget,
                    std::int64_t batches, std::int64_t batch_size) {
  EpochCost cost;
  const double sim0 = device.elapsed().seconds;
  util::WallTimer timer;
  if (auto* tgl = dynamic_cast<TglNeighborFinder*>(&finder)) tgl->reset();
  const bool is_gpu = finder.name() == "taser-gpu";
  for (std::int64_t b = 0; b < batches; ++b) {
    graph::TargetBatch roots;
    const std::int64_t lo = b * batch_size;
    for (std::int64_t i = lo; i < lo + batch_size && i < data.num_train(); ++i) {
      roots.push(data.src[i], data.ts[i]);
      roots.push(data.dst[i], data.ts[i]);
    }
    if (roots.size() == 0) break;
    finder.begin_batch(roots.times.back());
    auto hop1 = finder.sample(roots, budget, FinderPolicy::kUniform);
    if (!is_gpu) device.account_h2d(hop1.payload_bytes());
    graph::TargetBatch frontier;
    for (std::int64_t i = 0; i < hop1.num_targets; ++i)
      for (std::int64_t j = 0; j < hop1.count[static_cast<std::size_t>(i)]; ++j) {
        const auto s = static_cast<std::size_t>(hop1.slot(i, j));
        frontier.push(hop1.nbr[s], hop1.ts[s]);
      }
    if (frontier.size() > 0) {
      auto hop2 = finder.sample(frontier, budget, FinderPolicy::kUniform);
      if (!is_gpu) device.account_h2d(hop2.payload_bytes());
    }
  }
  cost.wall = is_gpu ? 0.0 : timer.seconds();  // GPU finder time is modeled
  cost.sim = device.elapsed().seconds - sim0;
  return cost;
}

}  // namespace

int main() {
  std::printf("== Fig. 3(a): neighbor-finder sampling time per epoch (2-hop TGAT "
              "pattern, chronological order) ==\n\n");
  const std::vector<std::int64_t> budgets = {5, 10, 15, 20, 25};
  const std::int64_t batch_size = 300;
  const std::int64_t batches = 12;

  double speedup_sum = 0;
  int speedup_count = 0;
  bool ordering_held = true;

  for (auto& cfg : bench::sampling_presets()) {
    graph::Dataset data = generate_synthetic(cfg);
    graph::TCSR graph(data);
    gpusim::Device device;
    // The orig finder carries the interpreter-overhead model (the paper's
    // baseline is Python); its column is wall + modeled interpreter time.
    OrigNeighborFinder orig(graph, 1, &device);
    TglNeighborFinder tgl(graph);
    GpuNeighborFinder gpu(graph, device);

    util::Table table({"neighbors/layer", "orig-cpu (s)", "tgl-cpu (s)",
                       "taser-gpu (s, modeled)", "gpu vs tgl"});
    for (std::int64_t budget : budgets) {
      const auto c_orig = run_epoch(orig, device, data, budget, batches, batch_size);
      const auto c_tgl = run_epoch(tgl, device, data, budget, batches, batch_size);
      const auto c_gpu = run_epoch(gpu, device, data, budget, batches, batch_size);
      const double ratio = c_tgl.total() / std::max(c_gpu.total(), 1e-12);
      table.add_row({std::to_string(budget), util::Table::fmt(c_orig.total(), 4),
                     util::Table::fmt(c_tgl.total(), 4),
                     util::Table::fmt(c_gpu.total(), 5),
                     util::Table::fmt(ratio, 1) + "x"});
      if (budget == budgets.back()) {
        speedup_sum += ratio;
        ++speedup_count;
      }
      if (!(c_gpu.total() < c_tgl.total() && c_tgl.total() < c_orig.total()))
        ordering_held = false;
    }
    std::printf("%s (|E|=%lld):\n", data.name.c_str(),
                static_cast<long long>(data.num_edges()));
    table.print();
    std::printf("\n");
  }
  std::printf("average GPU-vs-TGL speedup at 25 neighbors: %.1fx (paper: 37-56x, "
              "avg 46x). The orig column includes the interpreter-overhead "
              "model (5us/query + 100ns/neighbor, calibrated on the paper's "
              "Fig. 1); tgl-cpu is measured on %d host cores vs the paper's "
              "192.\n\n",
              speedup_sum / speedup_count, omp_get_max_threads());
  bench::print_shape("taser-gpu < tgl-cpu < orig-cpu at every budget and dataset",
                     ordering_held);
  return 0;
}
