// The in-sim workloads: fabric_wire, cache_rebind and churn
// (benchmark/README.md). Each drives a closed loop of simulated activities
// through the resolver client's async engine, in windows of equal counts of
// completed lookups, and checks every answer against the naming graph.
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/rng.hpp"

namespace namecoh::bm {
namespace {

constexpr double kZipf = 0.9;
constexpr std::uint64_t kSampleEvery = 1024;  ///< traced lookups with spans
constexpr SimDuration kServiceTime = 50;
constexpr SimDuration kWriteInterval = 10;
constexpr double kFlashFraction = 0.8;

enum class Kind { kFabricWire, kCacheRebind, kChurn };

struct Query {
  EntityId start;
  CompoundName name;
};

/// One binding the writer may rebind, with every value it has held.
struct Rebindable {
  EntityId leaf;
  std::size_t k = 0;
  std::vector<std::pair<SimTime, EntityId>> history;  ///< (since tick, value)
};

struct QuerySet {
  std::vector<Query> queries;  ///< [0, base) hottest first, then flash block
  std::size_t base = 0;
  std::vector<EntityId> expected;        ///< reference answer at set-up
  std::vector<std::int32_t> rebindable;  ///< index into bindings, or -1
  std::vector<Rebindable> bindings;      ///< hottest first
};

/// The X8 query generator (bench_x7_shard): rank r descends a rank-dependent
/// leaf path under level-2 root (r mod roots), ending at the leaf context
/// (even r) or one of its data bindings (odd r). With `cross_root`, every
/// eighth starts at the fabric root and crosses a delegation boundary;
/// churn goes without, as in X10, because no membership event moves the
/// root off a machine that leaves. The flash block adds queries under the
/// first level-1 subtree. Reference answers come from the local walk.
QuerySet make_queries(const Fabric& fabric, const Scale& s, bool cross_root) {
  QuerySet qs;
  const std::vector<EntityId>& roots = fabric.levels.at(2);
  const std::size_t fanout = s.fabric.fanout;
  const std::size_t below = s.fabric.depth - 2;
  auto leaf_path = [&](std::size_t salt) {
    std::string path;
    for (std::size_t d = 0; d < below; ++d) {
      if (d > 0) path += '/';
      path += 'c';
      path += std::to_string((salt + d * 7) % fanout);
      salt /= fanout;
    }
    return path;
  };
  std::vector<int> data_k;
  auto add = [&](EntityId start, std::string path, std::size_t r) {
    int k = -1;
    if (r % 2 == 1) {
      k = static_cast<int>(r % s.fabric.data_per_leaf);
      path += "/d" + std::to_string(k);
    }
    qs.queries.push_back(Query{start, CompoundName::relative(path)});
    data_k.push_back(k);
  };
  for (std::size_t r = 0; r < s.queries; ++r) {
    const std::size_t subtree = r % roots.size();
    if (cross_root && r % 8 == 3) {
      add(fabric.root,
          "c" + std::to_string(subtree / fanout) + "/c" +
              std::to_string(subtree % fanout) + "/" +
              leaf_path(r / roots.size()),
          r);
    } else {
      add(roots[subtree], leaf_path(r / roots.size()), r);
    }
  }
  qs.base = qs.queries.size();
  // Level-1 subtree 0 holds level-2 roots [0, fanout) (build order is BFS).
  for (std::size_t r = 0; r < s.flash_block; ++r) {
    add(roots[r % fanout], leaf_path(r * 3 + 1), r);
  }

  std::map<std::pair<std::uint64_t, int>, std::int32_t> index;
  for (std::size_t i = 0; i < qs.queries.size(); ++i) {
    const Walk w = walk(fabric.graph, qs.queries[i].start, qs.queries[i].name);
    NAMECOH_CHECK(w.ok, "generated query does not resolve");
    qs.expected.push_back(w.entity);
    if (data_k[i] < 0) {
      qs.rebindable.push_back(-1);
      continue;
    }
    const auto key = std::make_pair(std::uint64_t{w.last_context.value()},
                                    data_k[i]);
    auto [it, inserted] =
        index.emplace(key, static_cast<std::int32_t>(qs.bindings.size()));
    if (inserted) {
      qs.bindings.push_back(
          Rebindable{w.last_context, static_cast<std::size_t>(data_k[i]),
                     {{0, w.entity}}});
    }
    qs.rebindable.push_back(it->second);
  }
  return qs;
}

/// A closed loop of activities on the cluster's one client: each issues a
/// lookup, and on completion issues the next (think time 0), until the
/// issue budget runs out.
class ClosedLoop {
 public:
  struct Done {
    std::uint32_t query;
    bool ok;
    EntityId answer;
    SimTime issued;
    SimTime settled;
  };

  ClosedLoop(Cluster& cluster, const QuerySet& qs, Rng picks, Spans& spans)
      : cluster_(cluster), qs_(qs), rng_(std::move(picks)), spans_(spans) {}
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Raise the budget by `lookups` and run `activities` chains.
  void start(std::size_t activities, std::uint64_t lookups) {
    budget_ += lookups;
    std::uint64_t spawn = activities > alive_ ? activities - alive_ : 0;
    spawn = std::min(spawn, budget_ - issued_);
    for (std::uint64_t i = 0; i < spawn; ++i) {
      ++alive_;
      issue();
    }
  }
  void stop() { budget_ = issued_; }
  void run_to(std::uint64_t completed) {
    drive_while(cluster_, [&] { return completed_ < completed; });
    NAMECOH_CHECK(completed_ >= completed, "closed loop stalled");
  }
  /// Run until every lookup the budget allows has completed.
  void drain() { run_to(budget_); }

  void set_flash(double fraction) { flash_ = fraction; }
  /// Traced windows time every submission and completion callback and
  /// record a span tree for every kSampleEvery-th lookup.
  void set_traced(bool traced, std::uint64_t window_span) {
    traced_ = traced;
    window_span_ = window_span;
    bench_ns_ = 0;
    submit_ns_ = 0;
    submits_ = 0;
  }
  [[nodiscard]] std::int64_t bench_ns() const { return bench_ns_; }
  [[nodiscard]] std::int64_t submit_ns() const { return submit_ns_; }
  [[nodiscard]] std::uint64_t submits() const { return submits_; }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// Completions since the last clear_done(). Clearing keeps the capacity,
  /// so after the first window no timed completion reallocates.
  [[nodiscard]] const std::vector<Done>& done() const { return done_; }
  void clear_done() { done_.clear(); }
  std::vector<std::string> take_errors() { return std::exchange(errors_, {}); }
  /// Issued queries since the last call, up to `limit` (the replay input).
  void log_picks(std::size_t limit) {
    picks_.clear();
    pick_limit_ = limit;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& picks() const {
    return picks_;
  }

 private:
  void issue() {
    if (issued_ >= budget_) {
      --alive_;
      return;
    }
    const std::int64_t t0 = traced_ ? wall_ns() : 0;
    const std::uint64_t seq = ++issued_;
    std::size_t pick;
    if (flash_ > 0.0 && rng_.uniform01() < flash_) {
      pick = qs_.base + rng_.next_below(qs_.queries.size() - qs_.base);
    } else {
      pick = rng_.zipf(qs_.base, kZipf);
    }
    digest_ = fnv(digest_, pick);
    if (picks_.size() < pick_limit_) {
      picks_.push_back(static_cast<std::uint32_t>(pick));
    }
    const SimTime issued_at = now(cluster_);
    const std::uint64_t span = traced_ && seq % kSampleEvery == 0
                                   ? spans_.open("lookup", window_span_, seq)
                                   : 0;
    const Query& q = qs_.queries[pick];
    const std::int64_t t1 = traced_ ? wall_ns() : 0;
    nested_ns_ = 0;
    in_submit_ = true;
    submit(cluster_, q.start, q.name,
           [this, pick, issued_at, span](const Result<EntityId>& r) {
             on_done(static_cast<std::uint32_t>(pick), issued_at, span, r);
           });
    in_submit_ = false;
    if (traced_) {
      const std::int64_t t2 = wall_ns();
      submit_ns_ += t2 - t1 - nested_ns_;
      ++submits_;
      if (span != 0) {
        (void)spans_.add("ns.client.resolve_async", t1, t2, span, seq);
      }
      bench_ns_ += (t1 - t0) + (wall_ns() - t2);
    }
  }

  void on_done(std::uint32_t pick, SimTime issued_at, std::uint64_t span,
               const Result<EntityId>& r) {
    const std::int64_t t0 = traced_ ? wall_ns() : 0;
    ++completed_;
    done_.push_back(Done{pick, r.is_ok(), r.is_ok() ? r.value() : EntityId(),
                         issued_at, now(cluster_)});
    if (!r.is_ok() && errors_.size() < 8) {
      errors_.push_back(r.status().to_string());
    }
    spans_.close(span);
    // Re-issue through the scheduler: cache hits settle synchronously, and
    // issuing from inside the completion would recurse once per hit.
    schedule(cluster_, 0, [this] { issue(); });
    if (traced_) {
      const std::int64_t spent = wall_ns() - t0;
      bench_ns_ += spent;
      if (in_submit_) nested_ns_ += spent;
    }
  }

  Cluster& cluster_;
  const QuerySet& qs_;
  Rng rng_;
  Spans& spans_;
  std::uint64_t budget_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t alive_ = 0;
  double flash_ = 0.0;
  std::uint64_t digest_ = kFnvBasis;
  std::vector<Done> done_;
  std::vector<std::string> errors_;
  std::vector<std::uint32_t> picks_;
  std::size_t pick_limit_ = 0;
  bool traced_ = false;
  std::uint64_t window_span_ = 0;
  bool in_submit_ = false;
  std::int64_t nested_ns_ = 0;
  std::int64_t bench_ns_ = 0;
  std::int64_t submit_ns_ = 0;
  std::uint64_t submits_ = 0;
};

/// cache_rebind's open-loop writer: every kWriteInterval ticks, rebind one
/// data name under a Zipf-hot leaf to another pool object and publish it.
class Writer {
 public:
  Writer(Cluster& cluster, Fabric& fabric, QuerySet& qs, Rng rng)
      : cluster_(cluster), fabric_(fabric), qs_(qs), rng_(std::move(rng)) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void start() {
    active_ = true;
    schedule(cluster_, kWriteInterval, [this] { tick(); });
  }
  void stop() { active_ = false; }
  void set_traced(bool traced) { traced_ = traced; }
  [[nodiscard]] std::uint64_t rebinds() const { return rebinds_; }
  [[nodiscard]] std::int64_t traced_ns() const { return traced_ns_; }
  [[nodiscard]] std::uint64_t traced_rebinds() const { return traced_rebinds_; }

 private:
  void tick() {
    if (!active_) return;
    Rebindable& b = qs_.bindings[rng_.zipf(qs_.bindings.size(), kZipf)];
    const EntityId current = b.history.back().second;
    EntityId next = current;
    while (next == current) {
      next = fabric_.pool[rng_.next_below(fabric_.pool.size())];
    }
    b.history.emplace_back(now(cluster_), next);
    const std::int64_t t0 = traced_ ? wall_ns() : 0;
    rebind(fabric_, b.leaf, b.k, next);
    publish(cluster_, b.leaf);
    if (traced_) {
      traced_ns_ += wall_ns() - t0;
      ++traced_rebinds_;
    }
    ++rebinds_;
    schedule(cluster_, kWriteInterval, [this] { tick(); });
  }

  Cluster& cluster_;
  Fabric& fabric_;
  QuerySet& qs_;
  Rng rng_;
  bool active_ = false;
  bool traced_ = false;
  std::uint64_t rebinds_ = 0;
  std::int64_t traced_ns_ = 0;
  std::uint64_t traced_rebinds_ = 0;
};

struct Tally {
  std::uint64_t checked = 0;
  std::uint64_t stale = 0;
};

class InSimRun {
 public:
  InSimRun(Kind kind, const Args& args, const Scale& scale, Spans& spans)
      : kind_(kind), args_(args), scale_(scale), spans_(spans) {}

  Report run();

 private:
  /// Counters and clocks at one instant of the measured phase.
  struct Mark {
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t events = 0;
    SimTime now = 0;
    std::uint64_t rebinds = 0;
    std::uint64_t digest = 0;
  };

  [[nodiscard]] ClusterShape shape() const;
  void set_up();
  void window(const std::function<void()>& drive);
  void end_round();
  void churn_cycle();
  void check_done();
  [[nodiscard]] Mark mark();
  void report_model();
  void report_layers();

  Kind kind_;
  const Args& args_;
  const Scale& scale_;
  Spans& spans_;
  Report report_;
  SetupTimes setup_;

  // Destroyed bottom-up: the cluster first, because its client settles any
  // exchange still in flight on destruction and so calls into loop_; the
  // cluster reads fabric_'s graph, and the writer and loop read qs_.
  std::unique_ptr<Fabric> fabric_;
  QuerySet qs_;
  std::vector<ScriptDone> scripts_;
  std::unique_ptr<Writer> writer_;
  std::unique_ptr<ClosedLoop> loop_;
  std::unique_ptr<Cluster> cluster_;

  bool measuring_ = false;
  bool corrupt_pending_ = false;
  std::size_t windows_ = 0;
  std::size_t prefix_windows_ = 0;
  bool in_prefix_ = false;
  Tally prefix_;
  std::vector<std::uint32_t> settle_;  ///< prefix settle times, ticks
  std::vector<double> stale_ages_;     ///< prefix stale answers' ages, ticks
  /// Lookups/s per round: one window, or one whole churn cycle, whose
  /// restart phase carries the migration copies (churn's main cost).
  std::vector<double> rates_;
  double round_lookups_ = 0.0;
  double round_ns_ = 0.0;
  double traced_drive_ns_ = 0.0;  ///< windows minus benchmark code
  double traced_lookups_ = 0.0;
  double submit_ns_ = 0.0;
  double submits_ = 0.0;
  Mark start_;
  Mark end_;
};

ClusterShape InSimRun::shape() const {
  ClusterShape c;
  c.service_time = kServiceTime;
  const EntityId root = fabric_->root;
  // Closed-loop queueing can back a request up behind the whole activity
  // population; the timeout sits above that, not above one round trip.
  const SimDuration queue_bound =
      static_cast<SimDuration>(scale_.activities) * kServiceTime * 4 + 100000;
  c.client.shard_routing = true;
  c.client.retry.retries = 0;
  c.client.retry.request_timeout = queue_bound;
  c.client.retry.max_timeout = queue_bound;
  switch (kind_) {
    case Kind::kFabricWire:
    case Kind::kCacheRebind: {
      c.shards = kind_ == Kind::kFabricWire ? 64 : 16;
      c.replicas = kind_ == Kind::kFabricWire ? 1 : 3;
      // Level-2 subtrees round-robin over the shards, then the rest
      // (root, level 1) to shard 0; install order is placement order.
      const std::vector<EntityId>& roots = fabric_->levels.at(2);
      for (std::size_t i = 0; i < roots.size(); ++i) {
        c.delegations.emplace_back(roots[i],
                                   static_cast<ShardId>(i % c.shards));
      }
      c.delegations.emplace_back(root, 0);
      if (kind_ == Kind::kCacheRebind) {
        c.client.cache_ttl = 20000;
        c.client.cache_capacity = 4096;
        c.client.lease_coherence = true;
        c.lease_term = 20000;
        c.lease_capacity = 1 << 16;
      }
      break;
    }
    case Kind::kChurn:
      // The X10 shape (bench_x9_churn) on the X8 fabric.
      c.shards = 4;
      c.delegations.emplace_back(root, AuthorityMap::kNoShard);
      c.delegations.emplace_back(root, 0);
      c.membership = true;
      c.membership_options = scale_.membership;
      c.client.cache_ttl = 4000;
      c.client.lease_coherence = true;
      c.client.retry.retries = 3;
      c.client.retry.request_timeout = scale_.churn_timeout;
      c.client.retry.max_timeout = scale_.churn_timeout * 4;
      break;
  }
  return c;
}

void InSimRun::set_up() {
  cluster_.reset();
  loop_.reset();
  writer_.reset();
  scripts_.clear();
  qs_ = QuerySet{};
  fabric_.reset();

  const std::int64_t t0 = wall_ns();
  fabric_ = build_fabric(scale_.fabric);
  qs_ = make_queries(*fabric_, scale_, kind_ != Kind::kChurn);
  const std::int64_t t1 = wall_ns();
  cluster_ = build_cluster(*fabric_, shape());
  const Rng root(args_.seed);
  loop_ = std::make_unique<ClosedLoop>(*cluster_, qs_, root.child(0), spans_);
  if (kind_ == Kind::kCacheRebind) {
    writer_ = std::make_unique<Writer>(*cluster_, *fabric_, qs_, root.child(1));
    writer_->start();
  }
  const std::int64_t t2 = wall_ns();
  // Warm-up fills the client cache and the learned shard routes.
  loop_->start(scale_.activities, scale_.warmup);
  loop_->drain();
  const std::int64_t t3 = wall_ns();
  check_done();

  auto s = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) * 1e-9;
  };
  setup_.graph.push_back(s(t0, t1));
  setup_.cluster.push_back(s(t1, t2));
  setup_.warmup.push_back(s(t2, t3));
  setup_.total.push_back(s(t0, t3));
  (void)spans_.add("setup.graph", t0, t1);
  (void)spans_.add("setup.cluster", t1, t2);
  (void)spans_.add("setup.warmup", t2, t3);
}

InSimRun::Mark InSimRun::mark() {
  return Mark{counters(*cluster_), events_fired(*cluster_), now(*cluster_),
              writer_ ? writer_->rebinds() : 0, loop_->digest()};
}

/// One measured window: times `drive` (the sim drive loop and the
/// submissions inside it), then checks the window's answers untimed.
void InSimRun::window(const std::function<void()>& drive) {
  const bool traced = spans_.enabled();
  const std::uint64_t span = spans_.open("window");
  loop_->set_traced(traced, span);
  if (writer_) writer_->set_traced(traced);
  const std::uint64_t before = loop_->completed();
  const std::int64_t t0 = wall_ns();
  drive();
  const std::int64_t t1 = wall_ns();
  spans_.close(span);
  const auto lookups = static_cast<double>(loop_->completed() - before);
  round_lookups_ += lookups;
  round_ns_ += static_cast<double>(t1 - t0);
  if (traced) {
    traced_drive_ns_ += static_cast<double>(t1 - t0 - loop_->bench_ns());
    traced_lookups_ += lookups;
    submit_ns_ += static_cast<double>(loop_->submit_ns());
    submits_ += static_cast<double>(loop_->submits());
  }
  check_done();
  if (++windows_ == prefix_windows_) {
    end_ = mark();
    in_prefix_ = false;
  }
}

void InSimRun::end_round() {
  rates_.push_back(round_lookups_ / (round_ns_ * 1e-9));
  round_lookups_ = 0.0;
  round_ns_ = 0.0;
}

/// One churn cycle: rolling restart, rolling renumber under a flash crowd,
/// a partition window, a quiet sweep. Each phase is churn_phase lookups in
/// windows of churn_window; its last window also drives the simulator until
/// the phase's script has finished.
void InSimRun::churn_cycle() {
  Cluster& c = *cluster_;
  const std::size_t per_phase = scale_.churn_phase / scale_.churn_window;
  auto phase = [&](const char* name, const std::function<void()>& begin,
                   const std::function<void()>& settle) {
    const std::uint64_t span = spans_.open(name);
    const std::uint64_t base = loop_->completed();
    for (std::size_t w = 0; w < per_phase; ++w) {
      window([&] {
        if (w == 0) {
          begin();
          loop_->start(scale_.activities, scale_.churn_phase);
        }
        if (w + 1 < per_phase) {
          loop_->run_to(base + (w + 1) * scale_.churn_window);
        } else {
          loop_->drain();
          settle();
        }
      });
    }
    spans_.close(span);
  };
  auto await_script = [&] {
    const ScriptDone& done = scripts_.back();
    drive_while(c, [&] { return !done(); });
    if (!done()) report_.note_error("churn script stalled: " +
                                    std::to_string(now(c)));
  };

  phase(
      "phase.restart",
      [&] {
        scripts_.push_back(start_rolling_restart(
            c, RollingRestartSpec{now(c) + 1000, scale_.restart_downtime,
                                  scale_.restart_gap}));
      },
      await_script);
  phase(
      "phase.renumber",
      [&] {
        loop_->set_flash(kFlashFraction);
        scripts_.push_back(start_rolling_renumber(
            c, RollingRenumberSpec{now(c) + 500, scale_.rename_interval, 1}));
      },
      [&] {
        await_script();
        loop_->set_flash(0.0);
      });
  SimTime heal = 0;
  phase(
      "phase.partition",
      [&] {
        const SimTime cut = now(c) + 1000;
        heal = cut + scale_.partition_length;
        partition_client(c, 1, cut, heal);
      },
      [&] { drive_while(c, [&] { return now(c) < heal; }); });
  phase("phase.sweep", [] {}, [] {});
}

/// The oracle. An answer equal to the binding in effect at its completion
/// tick is correct; one equal to a binding the writer has since replaced is
/// stale; anything else, or a failed lookup, is wrong. Warm-up answers are
/// checked too, and a wrong one fails the run, but only measured lookups
/// are counted.
void InSimRun::check_done() {
  for (std::string& e : loop_->take_errors()) {
    report_.note_error("lookup failed: " + e);
  }
  for (const ClosedLoop::Done& d : loop_->done()) {
    if (measuring_) ++report_.attempted;
    EntityId answer = d.answer;
    if (measuring_ && corrupt_pending_) {
      answer = EntityId();
      corrupt_pending_ = false;
    }
    bool ok = d.ok && answer == qs_.expected[d.query];
    bool stale = false;
    double age = 0.0;
    const std::int32_t b = qs_.rebindable[d.query];
    if (d.ok && b >= 0) {
      const auto& history = qs_.bindings[static_cast<std::size_t>(b)].history;
      // The last value bound at or before the completion tick.
      const std::size_t current =
          static_cast<std::size_t>(
              std::upper_bound(history.begin(), history.end(), d.settled,
                               [](SimTime t, const auto& entry) {
                                 return t < entry.first;
                               }) -
              history.begin()) -
          1;
      ok = answer == history[current].second;
      for (std::size_t i = current; !ok && !stale && i-- > 0;) {
        if (history[i].second == answer) {
          stale = true;
          age = static_cast<double>(d.settled - history[i + 1].first);
        }
      }
    }
    if (!ok && !stale) {
      if (measuring_) ++report_.failed;
      if (d.ok) {
        report_.note_error(std::string(measuring_ ? "" : "warm-up: ") +
                           "wrong answer for query " +
                           std::to_string(d.query) + " at tick " +
                           std::to_string(d.settled));
      }
      report_.correct = false;
      continue;
    }
    if (stale && measuring_) ++report_.stale;
    if (in_prefix_) {
      ++prefix_.checked;
      settle_.push_back(static_cast<std::uint32_t>(
          std::min<SimTime>(d.settled - d.issued,
                            std::numeric_limits<std::uint32_t>::max())));
      if (stale) {
        ++prefix_.stale;
        stale_ages_.push_back(age);
      }
    }
  }
  loop_->clear_done();
}

Report InSimRun::run() {
  for (std::size_t i = 0; i < scale_.setups; ++i) set_up();
  setup_.report(report_);

  measuring_ = true;
  corrupt_pending_ = args_.corrupt;
  in_prefix_ = true;
  prefix_windows_ = kind_ == Kind::kChurn
                        ? 4 * (scale_.churn_phase / scale_.churn_window)
                        : scale_.min_windows;
  loop_->log_picks(scale_.replay_walks);
  start_ = mark();
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(args_.seconds * 1e9);
  if (kind_ == Kind::kChurn) {
    // Whole cycles only; another one starts when it should end in time.
    std::int64_t cycle_ns = 0;
    do {
      const std::int64_t t0 = wall_ns();
      churn_cycle();
      end_round();
      cycle_ns = wall_ns() - t0;
    } while (wall_ns() + cycle_ns <= deadline);
  } else {
    const std::size_t per_window = kind_ == Kind::kFabricWire
                                       ? scale_.wire_window
                                       : scale_.rebind_window;
    loop_->start(scale_.activities,
                 std::numeric_limits<std::uint64_t>::max() / 2);
    while (windows_ < prefix_windows_ || wall_ns() < deadline) {
      window([&] { loop_->run_to(loop_->completed() + per_window); });
      end_round();
    }
    loop_->stop();
    if (writer_) writer_->stop();
    loop_->drain();
    check_done();
  }

  report_.set("lookups_per_s", median(rates_), "lookups/s", Clock::kWall);
  report_.query_digest = end_.digest;
  std::uint64_t digest = kFnvBasis;
  for (const auto& [name, value] : end_.counters) {
    for (char ch : name) digest = fnv(digest, static_cast<unsigned char>(ch));
    digest = fnv(digest, value);
  }
  report_.counter_digest = digest;
  report_model();
  if (spans_.enabled()) report_layers();
  return std::move(report_);
}

/// Simulated-time results over the deterministic prefix.
void InSimRun::report_model() {
  const auto n = static_cast<double>(prefix_.checked);
  report_.set("model.sim_lookups_per_ktick",
              ratio(1000.0 * n, static_cast<double>(end_.now - start_.now)),
              "lookups/ktick", Clock::kSim);
  report_.set("model.settle_p50_ticks", quantile(settle_, 0.5), "ticks",
              Clock::kSim);
  report_.set("model.settle_p999_ticks", quantile(settle_, 0.999), "ticks",
              Clock::kSim);
  const auto sent = static_cast<double>(end_.counters["transport.sent"] -
                                        start_.counters["transport.sent"]);
  report_.set("model.msgs_per_lookup", ratio(sent, n), "msgs/lookup",
              Clock::kSim);
  report_.set("model.stale_frac",
              ratio(static_cast<double>(prefix_.stale), n), "frac",
              Clock::kSim);
}

void InSimRun::report_layers() {
  const auto n = static_cast<double>(prefix_.checked);
  // Counter deltas over the prefix; per-client and per-machine counters
  // are summed over every instance (`name` is then a suffix).
  auto delta = [&](const std::string& name, bool suffix = false,
                   const std::string& prefix = "") {
    double total = 0.0;
    for (const auto& [key, value] : end_.counters) {
      const bool match =
          suffix ? key.size() > name.size() && key.starts_with(prefix) &&
                       key.ends_with(name)
                 : key == name;
      if (!match) continue;
      auto it = start_.counters.find(key);
      total += static_cast<double>(
          value - (it == start_.counters.end() ? 0 : it->second));
    }
    return total;
  };
  auto client = [&](const char* field) {
    return delta(std::string(".") + field, true, "ns.client.");
  };
  const double sent = delta("transport.sent");
  const auto events = static_cast<double>(end_.events - start_.events);
  const double rebinds = static_cast<double>(end_.rebinds - start_.rebinds);

  ReplayInputs in;
  in.graph = &fabric_->graph;
  for (std::uint32_t pick : loop_->picks()) {
    in.starts.push_back(qs_.queries[pick].start);
    in.names.push_back(&qs_.queries[pick].name);
  }
  const ClusterShape c = shape();
  in.replicas = c.replicas;
  in.lease = c.client.lease_coherence;
  in.glue = c.client.shard_routing;
  const ReplayResult replay = run_replays(in, scale_, spans_);

  const double drive_ns = ratio(traced_drive_ns_, traced_lookups_);
  const double events_per_lookup = ratio(events, n);
  const double msgs_per_lookup = ratio(sent, n);
  auto set = [&](const char* name, double value, const char* unit,
                 Clock clock) { report_.set(name, value, unit, clock); };
  set("sim.drive_ns_per_lookup", drive_ns, "ns", Clock::kWall);
  set("sim.events_per_lookup", events_per_lookup, "events/lookup",
      Clock::kSim);
  set("sim.event_ns", replay.event_ns, "ns", Clock::kWall);
  set("net.codec_ns_per_msg", replay.codec_ns, "ns", Clock::kWall);
  set("net.transport_ns_per_msg", replay.transport_ns, "ns", Clock::kWall);
  set("net.bytes_per_msg", ratio(delta("transport.bytes_sent"), sent),
      "B/msg", Clock::kSim);
  set("net.dropped_frac",
      ratio(delta("transport.dropped") + delta("transport.unreachable"), sent),
      "frac", Clock::kSim);
  set("core.walk_ns", replay.walk_ns, "ns", Clock::kWall);
  set("core.steps_per_walk", replay.steps_per_walk, "steps/walk",
      Clock::kSim);
  set("exec.batch_us", replay.par_batch_us, "us", Clock::kWall);
  set("exec.seq_lookups_per_s", replay.seq_lookups_per_s, "lookups/s",
      Clock::kWall);
  set("exec.par_speedup",
      ratio(replay.par_lookups_per_s, replay.seq_lookups_per_s), "x",
      Clock::kWall);

  const double resolutions = client("resolutions");
  set("ns.client.submit_ns", ratio(submit_ns_, submits_), "ns", Clock::kWall);
  set("ns.client.cache_hit_frac", ratio(client("cache_hits"), resolutions),
      "frac", Clock::kSim);
  set("ns.client.evictions_per_klookup",
      ratio(1000.0 * client("evictions"), n), "count/klookup", Clock::kSim);
  set("ns.client.coalesced_frac", ratio(client("coalesced"), resolutions),
      "frac", Clock::kSim);
  set("ns.client.referrals_per_lookup",
      ratio(client("referrals_followed"), n), "count/lookup", Clock::kSim);
  set("ns.client.timeouts_per_klookup", ratio(1000.0 * client("timeouts"), n),
      "count/klookup", Clock::kSim);
  set("ns.client.retries_per_klookup",
      ratio(1000.0 * client("backoff_retries"), n), "count/klookup",
      Clock::kSim);
  for (const char* field : {"failovers", "invalidates_received",
                            "stale_epoch_drops", "lease_renewals",
                            "lease_degrades"}) {
    report_.set(std::string("ns.client.") + field, client(field), "count",
                Clock::kSim);
  }
  set("coherence.stale_age_p99_ticks", quantile(stale_ages_, 0.99), "ticks",
      Clock::kSim);
  set("coherence.stale_age_max_ticks", quantile(stale_ages_, 1.0), "ticks",
      Clock::kSim);

  const double requests = delta("ns.server.requests");
  set("ns.server.requests_per_lookup", ratio(requests, n), "count/lookup",
      Clock::kSim);
  set("ns.server.referral_frac", ratio(delta("ns.server.referrals"), requests),
      "frac", Clock::kSim);
  set("ns.server.duplicates", delta("ns.server.duplicates"), "count",
      Clock::kSim);
  double served = 0.0;
  double busiest = 0.0;
  for (const auto& [key, value] : end_.counters) {
    if (!key.starts_with("ns.server.m") || !key.ends_with(".served")) continue;
    const double d = delta(key);
    served += d;
    busiest = std::max(busiest, d);
  }
  set("ns.server.queue_wait_ticks_mean",
      ratio(delta(".wait_ticks", true, "ns.server.m"), served), "ticks",
      Clock::kSim);
  set("ns.server.busiest_machine_share", ratio(busiest, served), "frac",
      Clock::kSim);
  // Per-rebind metrics exist only where a writer rebinds (cache_rebind).
  if (writer_) {
    set("ns.server.publish_update_us",
        ratio(static_cast<double>(writer_->traced_ns()) * 1e-3,
              static_cast<double>(writer_->traced_rebinds())),
        "us", Clock::kWall);
    set("ns.server.update_pushes_per_rebind",
        ratio(delta("ns.server.update_pushes"), rebinds), "count/rebind",
        Clock::kSim);
    set("ns.server.invalidates_pushed_per_rebind",
        ratio(delta("ns.server.invalidates_pushed"), rebinds), "count/rebind",
        Clock::kSim);
  }
  set("ns.server.pushes_suppressed", delta("ns.server.pushes_suppressed"),
      "count", Clock::kSim);
  set("ns.shard.glue_hits", delta("ns.shard.glue_hits"), "count",
      Clock::kSim);
  set("ns.shard.cross_shard_hops_per_klookup",
      ratio(1000.0 * delta("ns.shard.cross_shard_hops"), n), "count/klookup",
      Clock::kSim);
  set("ns.shard.route_reuse_frac", ratio(delta("ns.shard.route_reuses"), n),
      "frac", Clock::kSim);
  for (const char* name :
       {"ns.rebalance.snapshots_pushed", "ns.rebalance.migrations_completed",
        "ns.membership.handoffs_live", "ns.membership.handoffs_forced",
        "ns.member.routes_healed", "ns.member.dead_route_skips",
        "ns.server.forwarded"}) {
    set(name, delta(name), "count", Clock::kSim);
  }
  set("ns.unattributed_ns_per_lookup",
      drive_ns - events_per_lookup * replay.event_ns -
          msgs_per_lookup * replay.transport_ns,
      "ns", Clock::kWall);

  // One end-to-end lookup, split by layer (wall ns per lookup).
  auto row = [&](const char* layer, double ns, const char* how) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-38s %10.1f  %s", layer, ns, how);
    report_.table.emplace_back(line);
  };
  report_.table.emplace_back("per-layer wall time of one end-to-end lookup "
                             "(traced windows):");
  row("simulator event queue", events_per_lookup * replay.event_ns,
      "events/lookup x replayed event");
  row("transport, incl. wire codec", msgs_per_lookup * replay.transport_ns,
      "msgs/lookup x replayed send+deliver");
  row("  of which wire codec", msgs_per_lookup * replay.codec_ns,
      "msgs/lookup x replayed encode+decode");
  row("ns server + client engine",
      drive_ns - events_per_lookup * replay.event_ns -
          msgs_per_lookup * replay.transport_ns,
      "derived: drive - queue - transport");
  row("  of which resolve_async submit", ratio(submit_ns_, submits_),
      "measured");
  row("total sim drive", drive_ns, "measured, benchmark callbacks excluded");
}

}  // namespace

Report run_insim(const Args& args, const Scale& scale, Spans& spans) {
  Kind kind;
  if (args.workload == "fabric_wire") {
    kind = Kind::kFabricWire;
  } else if (args.workload == "cache_rebind") {
    kind = Kind::kCacheRebind;
  } else {
    NAMECOH_CHECK(args.workload == "churn", "unknown in-sim workload");
    kind = Kind::kChurn;
  }
  InSimRun run(kind, args, scale, spans);
  return run.run();
}

}  // namespace namecoh::bm
