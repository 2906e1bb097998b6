// The local_walk workload (benchmark/README.md): batches of from-root walks
// through exec::resolve_batch on a benchmark-owned worker pool. No wire, no
// simulator: the core walk and the exec seam are all there is.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/rng.hpp"

namespace namecoh::bm {
namespace {

/// walk_queries distinct leaves, scattered over the tree, as from-root
/// paths; odd queries continue into one of the leaf's data bindings.
std::vector<CompoundName> make_names(const Fabric& fabric, const Scale& s) {
  const std::size_t leaves = fabric.levels.back().size();
  NAMECOH_CHECK(s.walk_queries <= leaves, "more walk queries than leaves");
  std::vector<CompoundName> names;
  names.reserve(s.walk_queries);
  for (std::size_t i = 0; i < s.walk_queries; ++i) {
    // 7919 is prime and coprime with both leaf counts (16^5 and 10^4), so
    // distinct i give distinct leaves.
    std::size_t leaf = (i * 7919) % leaves;
    std::string path;
    for (std::size_t d = 0; d < s.fabric.depth; ++d) {
      path.insert(0, (d + 1 < s.fabric.depth ? "/c" : "c") +
                         std::to_string(leaf % s.fabric.fanout));
      leaf /= s.fabric.fanout;
    }
    if (i % 2 == 1) path += "/d" + std::to_string(i % s.fabric.data_per_leaf);
    names.push_back(CompoundName::relative(path));
  }
  return names;
}

}  // namespace

Report run_local_walk(const Args& args, const Scale& s, Spans& spans) {
  Report report;
  SetupTimes setup;
  std::unique_ptr<Fabric> fabric;
  std::vector<CompoundName> names;
  std::vector<exec::BatchQuery> ring;
  std::vector<std::size_t> ring_picks;
  std::unique_ptr<WorkerPool> pool;
  std::uint64_t digest = kFnvBasis;
  const std::size_t workers = std::min<std::size_t>(4, hardware_workers());
  auto batch_at = [&](std::size_t b) {
    return std::span<const exec::BatchQuery>(ring).subspan(
        (b % s.walk_ring) * s.walk_batch, s.walk_batch);
  };

  for (std::size_t i = 0; i < s.setups; ++i) {
    pool.reset();
    ring.clear();
    names.clear();
    fabric.reset();
    const std::int64_t t0 = wall_ns();
    fabric = build_fabric(s.fabric);
    const std::int64_t t1 = wall_ns();
    names = make_names(*fabric, s);
    pool = make_pool(workers);
    // Batches are generated before timing and cycled.
    Rng picks = Rng(args.seed).child(2);
    digest = kFnvBasis;
    ring_picks.clear();
    ring.reserve(s.walk_ring * s.walk_batch);
    for (std::size_t q = 0; q < s.walk_ring * s.walk_batch; ++q) {
      const std::size_t pick = picks.next_below(names.size());
      digest = fnv(digest, pick);
      ring_picks.push_back(pick);
      ring.push_back(exec::BatchQuery{fabric->root, names[pick]});
    }
    const std::int64_t t2 = wall_ns();
    for (std::size_t b = 0; b * s.walk_batch < s.warmup; ++b) {
      (void)resolve_par(*pool, fabric->graph, batch_at(b));
    }
    const std::int64_t t3 = wall_ns();
    auto sec = [](std::int64_t a, std::int64_t b) {
      return static_cast<double>(b - a) * 1e-9;
    };
    setup.graph.push_back(sec(t0, t1));
    setup.cluster.push_back(sec(t1, t2));
    setup.warmup.push_back(sec(t2, t3));
    setup.total.push_back(sec(t0, t3));
    (void)spans.add("setup.graph", t0, t1);
    (void)spans.add("setup.batches", t1, t2);
    (void)spans.add("setup.warmup", t2, t3);
  }
  setup.report(report);
  report.query_digest = digest;

  bool corrupt_pending = args.corrupt;
  std::vector<double> rates;
  std::vector<exec::BatchQuery> sample;
  std::vector<EntityId> sampled_answers;
  std::size_t cursor = 0;
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t windows = 0;
       windows < s.min_windows || wall_ns() < deadline; ++windows) {
    const std::uint64_t span = spans.open("window");
    std::int64_t timed_ns = 0;
    std::size_t walks = 0;
    sample.clear();
    sampled_answers.clear();
    for (std::size_t b = 0; b < s.walk_window_batches; ++b) {
      const auto batch = batch_at(cursor++);
      const std::int64_t t0 = wall_ns();
      const exec::BatchOutcome out = resolve_par(*pool, fabric->graph, batch);
      const std::int64_t t1 = wall_ns();
      timed_ns += t1 - t0;
      walks += out.results.size();
      (void)spans.add("exec.resolve_batch", t0, t1, span);
      if (out.failed > 0) {
        report.failed += out.failed;
        report.note_error(std::to_string(out.failed) + " walks failed");
      }
      // 1 in 64 answers is checked against the sequential policy.
      for (std::size_t i = 0; i < out.results.size(); i += 64) {
        sample.push_back(batch[i]);
        sampled_answers.push_back(out.results[i].entity);
      }
    }
    spans.close(span);
    report.attempted += walks;
    rates.push_back(static_cast<double>(walks) /
                    (static_cast<double>(timed_ns) * 1e-9));

    if (corrupt_pending) {
      sampled_answers.front() = EntityId();
      corrupt_pending = false;
    }
    const exec::BatchOutcome reference = resolve_seq(fabric->graph, sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const Resolution& want = reference.results[i];
      if (!want.ok() || want.entity != sampled_answers[i]) {
        ++report.failed;
        report.note_error("par answer differs from seq for sample " +
                          std::to_string(i) + " of window " +
                          std::to_string(windows));
      }
    }
  }
  report.set("lookups_per_s", median(rates), "lookups/s", Clock::kWall);

  if (spans.enabled()) {
    ReplayInputs in;
    in.graph = &fabric->graph;
    for (std::size_t q = 0; q < std::min(ring.size(), s.replay_walks); ++q) {
      in.starts.push_back(fabric->root);
      in.names.push_back(&names[ring_picks[q]]);
    }
    const ReplayResult replay = run_replays(in, s, spans);
    report.set("core.walk_ns", replay.walk_ns, "ns", Clock::kWall);
    report.set("core.steps_per_walk", replay.steps_per_walk, "steps/walk",
               Clock::kSim);
    report.set("exec.batch_us", replay.par_batch_us, "us", Clock::kWall);
    report.set("exec.seq_lookups_per_s", replay.seq_lookups_per_s,
               "lookups/s", Clock::kWall);
    report.set("exec.par_speedup",
               ratio(replay.par_lookups_per_s, replay.seq_lookups_per_s), "x",
               Clock::kWall);
    report.set("net.codec_ns_per_msg", replay.codec_ns, "ns", Clock::kWall);
    report.set("net.transport_ns_per_msg", replay.transport_ns, "ns",
               Clock::kWall);
    report.set("sim.event_ns", replay.event_ns, "ns", Clock::kWall);
  }
  return report;
}

}  // namespace namecoh::bm
