/// \file sweep_workload.cc
/// \brief paper-sweep: the paper's §4.1 experiment through `run_sweep`.
///
/// Random, Max and Grid each place one beacon on uniform random fields at
/// every paper density (20..240 beacons) and noise level (0, 0.1, 0.3,
/// 0.5), with Table 1's parameters. One sweep covers Figs 4-9. The work
/// sits in eval, placement, loc and field; serve and cluster are not used.
///
/// A round is: set-up (one field per cell built and measured: the sample
/// the checker verifies), a latency phase (every worker thread runs single
/// trials back to back through `run_trial`), and the sweep itself on
/// `nproc` threads, whose trials per second is the throughput.
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "eval/config.h"
#include "eval/runner.h"
#include "eval/trial.h"
#include "field/generators.h"
#include "loc/error_map.h"
#include "loc/survey_data.h"
#include "oracle.h"
#include "placement/grid_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "radio/noise_model.h"
#include "rng/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using abp::PlacementAlgorithm;

/// Times every `propose` of the wrapped algorithm into the span log.
class TimedPlacement final : public PlacementAlgorithm {
 public:
  TimedPlacement(const PlacementAlgorithm& inner, SpanLog& log)
      : inner_(inner), span_("placement." + inner.name() + ".propose"),
        log_(log) {}
  std::string name() const override { return inner_.name(); }
  abp::Vec2 propose(const abp::PlacementContext& ctx,
                    abp::Rng& rng) const override {
    const double t0 = now_s();
    const abp::Vec2 p = inner_.propose(ctx, rng);
    log_.record({span_, "eval.trial", 0, t0, now_s()});
    return p;
  }

 private:
  const PlacementAlgorithm& inner_;
  std::string span_;
  SpanLog& log_;
};

struct Sizes {
  std::size_t sweep_trials = 6;      ///< trials per cell in the sweep
  std::size_t latency_stride = 2;    ///< latency phase runs every k-th cell
  std::size_t checked_fields = 4;    ///< set-up fields brute-forced per run
  std::size_t noise_pairs = 32;      ///< paired fields for the noise check
  std::size_t reduced_trials = 2;    ///< trials per cell, thread-identity sweep
};

constexpr std::size_t kNoiseCheckBeacons = 40;

/// One set-up field: a cell's field with its measured error map.
struct CellField {
  std::size_t count = 0;
  double noise = 0.0;
  std::uint64_t seed = 0;
  std::unique_ptr<abp::BeaconField> field;
  std::unique_ptr<abp::PerBeaconNoiseModel> model;
  std::unique_ptr<abp::ErrorMap> map;
};

/// A single trial of the latency phase.
struct TrialOp {
  std::size_t count = 0;
  double noise = 0.0;
  std::uint64_t seed = 0;
};

bool same_summary(const abp::Summary& a, const abp::Summary& b) {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.max == b.max && a.median == b.median &&
         a.p90 == b.p90 && a.ci95 == b.ci95;
}

bool same_outcome(const abp::SweepOutcome& a, const abp::SweepOutcome& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t n = 0; n < a.cells.size(); ++n) {
    if (a.cells[n].size() != b.cells[n].size()) return false;
    for (std::size_t c = 0; c < a.cells[n].size(); ++c) {
      const abp::CellResult& x = a.cells[n][c];
      const abp::CellResult& y = b.cells[n][c];
      if (!same_summary(x.mean_error, y.mean_error) ||
          !same_summary(x.median_error, y.median_error) ||
          !same_summary(x.uncovered, y.uncovered) ||
          x.improvement_mean.size() != y.improvement_mean.size()) {
        return false;
      }
      for (std::size_t k = 0; k < x.improvement_mean.size(); ++k) {
        if (!same_summary(x.improvement_mean[k], y.improvement_mean[k]) ||
            !same_summary(x.improvement_median[k], y.improvement_median[k])) {
          return false;
        }
      }
    }
  }
  return true;
}

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const RunOptions& options) : options_(options) {
    if (options.self_test) {
      sizes_.sweep_trials = 1;
      sizes_.latency_stride = 23;
      sizes_.checked_fields = 2;
      sizes_.reduced_trials = 1;
    }
    config_.params = abp::PaperParams{};
    config_.beacon_counts = abp::SweepConfig::paper_beacon_counts();
    config_.noise_levels = abp::SweepConfig::paper_noise_levels();
    config_.trials = sizes_.sweep_trials;
    config_.seed = abp::derive_seed(options.seed, 1);
    config_.threads = options.nproc;
    algorithms_ = {&random_, &max_, &grid_};

    abp::Rng rng(abp::derive_seed(options.seed, 2));
    const auto& counts = config_.beacon_counts;
    const auto& noises = config_.noise_levels;
    // Every thread runs every cell once, starting at its own offset, so
    // the mix of densities is the same whatever the seed.
    for (std::size_t t = 0; t < options.nproc; ++t) {
      std::vector<TrialOp> ops;
      const std::size_t n = counts.size() * noises.size();
      for (std::size_t i = 0; i < n; i += sizes_.latency_stride) {
        const std::size_t cell = (i + t * n / options.nproc) % n;
        ops.push_back({counts[cell % counts.size()],
                       noises[cell / counts.size()], rng.next_u64()});
      }
      latency_ops_.push_back(std::move(ops));
    }
    field_seed_ = abp::derive_seed(options.seed, 3);
    for (std::size_t i = 0; i < sizes_.checked_fields; ++i) {
      checked_cells_.push_back(rng.below(counts.size() * noises.size()));
    }

    digest_ = digest_mix(kDigestInit, config_.seed);
    digest_ = digest_mix(digest_, field_seed_);
    for (const auto& ops : latency_ops_) {
      for (const TrialOp& op : ops) {
        digest_ = digest_mix(digest_, op.count);
        digest_ = digest_mix(digest_, op.seed);
      }
    }
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "paper-sweep: side " << config_.params.side << " m, R "
       << config_.params.range << " m, step " << config_.params.step
       << " m, NG " << config_.params.num_grids << "; counts 20..240 step 10"
       << " x noise {0,0.1,0.3,0.5}; " << config_.trials
       << " trials/cell per sweep (" << total_trials()
       << " trials) on " << options_.nproc << " threads; latency phase "
       << latency_ops_.front().size() << " trials x " << options_.nproc
       << " threads; set-up " << cells() << " fields";
    return os.str();
  }

  std::uint64_t input_digest() const override { return digest_; }

  Round round(SpanLog* trace, LayerMetrics* layers, Result& result) override {
    Round r;
    const double t_setup = now_s();
    std::vector<CellField> fields = build_cell_fields();
    r.setup_s = now_s() - t_setup;
    if (!checked_) check_fields(fields, result);

    // Latency phase: each worker runs its own trials back to back.
    std::vector<std::vector<double>> lat(options_.nproc);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < options_.nproc; ++t) {
      workers.emplace_back([&, t] {
        for (const TrialOp& op : latency_ops_[t]) {
          const double t0 = now_s();
          const abp::TrialResult tr = abp::run_trial(
              config_.params, op.count, op.noise, algorithms_, op.seed);
          lat[t].push_back((now_s() - t0) * 1e3);
          if (tr.outcomes.size() != algorithms_.size()) latency_bad_ = true;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const auto& v : lat) r.latency_ms.insert(r.latency_ms.end(), v.begin(), v.end());
    result.check(!latency_bad_, "paper-sweep: a latency-phase trial lost an outcome");

    // Throughput phase: the sweep, traced through the placement decorator.
    std::vector<std::unique_ptr<TimedPlacement>> timed;
    std::vector<const PlacementAlgorithm*> algs = algorithms_;
    if (trace != nullptr) {
      algs.clear();
      for (const PlacementAlgorithm* a : algorithms_) {
        timed.push_back(std::make_unique<TimedPlacement>(*a, *trace));
        algs.push_back(timed.back().get());
      }
    }
    const double t0 = now_s();
    abp::SweepOutcome outcome = abp::run_sweep(config_, algs);
    r.busy_s = now_s() - t0;
    r.ops_per_s = static_cast<double>(total_trials()) / r.busy_s;
    r.attempted = total_trials() + r.latency_ms.size();

    if (!first_outcome_) {
      check_shape(outcome, result);
      first_outcome_ = std::make_unique<abp::SweepOutcome>(std::move(outcome));
    } else {
      result.check(same_outcome(*first_outcome_, outcome),
                   "paper-sweep: a repeated round gave a different sweep");
    }
    if (trace != nullptr && layers != nullptr) {
      layer_metrics(*trace, r, *layers);
    }
    return r;
  }

  void run_checks(Result& result) override {
    check_noise_pairs(result);
    // A reduced sweep gives identical output on 1 and nproc threads.
    abp::SweepConfig reduced = reduced_config();
    reduced.threads = 1;
    const double t1 = now_s();
    const abp::SweepOutcome one = abp::run_sweep(reduced, algorithms_);
    const double s1 = now_s() - t1;
    reduced.threads = options_.nproc;
    const double tn = now_s();
    const abp::SweepOutcome many = abp::run_sweep(reduced, algorithms_);
    const double sn = now_s() - tn;
    result.check(same_outcome(one, many),
                 "paper-sweep: reduced sweep differs between 1 and nproc threads");
    thread_speedup_ = s1 / sn;
  }

  void self_test_perturbations(Result& result) override {
    // The field verifier must reject a map that is off at one point, and
    // proposals one lattice step away from the brute-force answers.
    std::vector<CellField> fields = build_cell_fields();
    CellField& cell = fields[checked_cells_.front()];
    const abp::Lattice2D lattice = config_.params.lattice();
    const std::vector<double> truth = oracle::error_map(
        oracle::active_beacons(*cell.field), *cell.model, lattice);
    std::vector<double> program(cell.map->values().begin(),
                                cell.map->values().end());
    result.check(map_matches(program, truth, *cell.map),
                 "self-test: unperturbed map rejected");
    program[program.size() / 2] += 1e-6;
    result.check(!map_matches(program, truth, *cell.map),
                 "self-test: perturbed error map accepted");
    const abp::SurveyData survey = abp::SurveyData::from_error_map(*cell.map);
    const abp::PlacementContext ctx = abp::PlacementContext::basic(
        survey, config_.params.bounds(), config_.params.range);
    abp::Rng rng(1);
    abp::Vec2 max_pos = max_.propose(ctx, rng);
    max_pos.x += config_.params.step;
    result.check(!max_matches(max_pos, truth, lattice),
                 "self-test: perturbed Max proposal accepted");
    abp::Vec2 grid_pos = grid_.propose(ctx, rng);
    grid_pos.y += 5.0;
    result.check(!grid_matches(grid_pos, truth, lattice),
                 "self-test: perturbed Grid proposal accepted");
    // The shape and thread-identity checks must reject a perturbed sweep.
    abp::SweepConfig reduced = reduced_config();
    const abp::SweepOutcome a = abp::run_sweep(reduced, algorithms_);
    abp::SweepOutcome b = a;
    b.cells[0][0].mean_error.mean += 1e-9;
    result.check(!same_outcome(a, b),
                 "self-test: perturbed sweep passed the identity check");
    Result shape;
    abp::SweepOutcome swapped = *first_outcome_;
    for (auto& row : swapped.cells) {
      std::swap(row[0].improvement_mean[1], row[0].improvement_mean[2]);
    }
    check_shape(swapped, shape);
    result.check(!shape.correct(),
                 "self-test: sweep with Max and Grid swapped passed the shape check");
  }

 private:
  std::size_t cells() const {
    return config_.beacon_counts.size() * config_.noise_levels.size();
  }
  std::size_t total_trials() const { return cells() * config_.trials; }

  abp::SweepConfig reduced_config() const {
    abp::SweepConfig reduced = config_;
    reduced.trials = sizes_.reduced_trials;
    reduced.noise_levels = {0.0, 0.5};
    reduced.seed = abp::derive_seed(options_.seed, 4);
    return reduced;
  }

  /// One field per (noise, count) cell, built and measured the way
  /// `run_trial` does it.
  std::vector<CellField> build_cell_fields() const {
    std::vector<CellField> out;
    const abp::PaperParams& p = config_.params;
    const abp::Lattice2D lattice = p.lattice();
    std::size_t i = 0;
    for (double noise : config_.noise_levels) {
      for (std::size_t count : config_.beacon_counts) {
        CellField cell;
        cell.count = count;
        cell.noise = noise;
        cell.seed = abp::derive_seed(field_seed_, i++);
        cell.model = std::make_unique<abp::PerBeaconNoiseModel>(
            p.range, noise, abp::derive_seed(cell.seed, 2));
        cell.field = std::make_unique<abp::BeaconField>(
            p.bounds(), cell.model->max_range());
        abp::Rng rng(abp::derive_seed(cell.seed, 1));
        abp::scatter_uniform(*cell.field, count, rng);
        cell.map = std::make_unique<abp::ErrorMap>(lattice);
        cell.map->compute(*cell.field, *cell.model);
        out.push_back(std::move(cell));
      }
    }
    return out;
  }

  static bool map_matches(const std::vector<double>& program,
                          const std::vector<double>& truth,
                          const abp::ErrorMap& map) {
    if (program.size() != truth.size()) return false;
    for (std::size_t k = 0; k < truth.size(); ++k) {
      if (std::abs(program[k] - truth[k]) > 1e-9) return false;
    }
    return std::abs(map.mean() - oracle::mean(truth)) <= 1e-9 &&
           std::abs(map.median() - oracle::median(truth)) <= 1e-9;
  }

  /// Max must propose a lattice point whose brute-force LE is the maximum.
  static bool max_matches(abp::Vec2 pos, const std::vector<double>& truth,
                          const abp::Lattice2D& lattice) {
    const double best = oracle::max_error(truth);
    for (std::size_t k = 0; k < lattice.size(); ++k) {
      const abp::Vec2 q = lattice.point(k);
      if (q.x == pos.x && q.y == pos.y) {
        return truth[k] >= best - 1e-9;
      }
    }
    return false;
  }

  /// Grid must propose the centre of a grid whose brute-force cumulative
  /// LE is the maximum over the paper's NG grids.
  bool grid_matches(abp::Vec2 pos, const std::vector<double>& truth,
                    const abp::Lattice2D& lattice) const {
    const abp::PaperParams& p = config_.params;
    const auto centers =
        oracle::grid_centers(p.bounds(), p.num_grids, p.range);
    double best = -1.0;
    double chosen = -1.0;
    for (const abp::Vec2& c : centers) {
      const double s = oracle::grid_cumulative(truth, lattice, c, p.range);
      best = std::max(best, s);
      if (std::abs(c.x - pos.x) < 1e-9 && std::abs(c.y - pos.y) < 1e-9) {
        chosen = s;
      }
    }
    return chosen >= 0.0 && chosen >= best - 1e-9 * std::max(1.0, best);
  }

  void check_fields(const std::vector<CellField>& fields, Result& result) {
    checked_ = true;
    const abp::Lattice2D lattice = config_.params.lattice();
    for (std::size_t idx : checked_cells_) {
      const CellField& cell = fields[idx];
      const std::vector<double> truth = oracle::error_map(
          oracle::active_beacons(*cell.field), *cell.model, lattice);
      const std::vector<double> program(cell.map->values().begin(),
                                        cell.map->values().end());
      const std::string where = " (count " + std::to_string(cell.count) +
                                ", noise " + std::to_string(cell.noise) + ")";
      result.check(map_matches(program, truth, *cell.map),
                   "paper-sweep: ErrorMap differs from brute force" + where);
      const abp::SurveyData survey = abp::SurveyData::from_error_map(*cell.map);
      const abp::PlacementContext ctx = abp::PlacementContext::basic(
          survey, config_.params.bounds(), config_.params.range);
      abp::Rng rng(1);
      result.check(max_matches(max_.propose(ctx, rng), truth, lattice),
                   "paper-sweep: Max is not the brute-force argmax" + where);
      result.check(grid_matches(grid_.propose(ctx, rng), truth, lattice),
                   "paper-sweep: Grid is not the brute-force best grid" + where);
    }
  }

  /// The paper's shape: mean LE falls with density at every noise level;
  /// at 20 beacons Grid improves the mean more than Max, and Max more
  /// than nothing (pooled over the noise levels).
  void check_shape(const abp::SweepOutcome& o, Result& result) const {
    const std::size_t last = o.cells.front().size() - 1;
    double grid20 = 0.0, max20 = 0.0;
    for (const auto& row : o.cells) {
      result.check(row.front().mean_error.mean > row[last].mean_error.mean,
                   "paper-sweep: mean LE does not fall from 20 to 240 beacons");
      max20 += row.front().improvement_mean[1].mean;
      grid20 += row.front().improvement_mean[2].mean;
    }
    result.check(max20 > 0.0, "paper-sweep: Max does not improve at 20 beacons");
    result.check(grid20 > max20,
                 "paper-sweep: Grid does not beat Max at 20 beacons");
  }

  /// Noise 0.5 mean LE is at least noise-0 mean LE at low density, on
  /// paired fields (same beacons, both models). At 40 beacons the paired
  /// difference is about 0.16 m with a 0.15 m standard deviation, so the
  /// mean over 32 pairs sits six standard errors above zero; at 20 beacons
  /// it is only two.
  void check_noise_pairs(Result& result) const {
    const abp::PaperParams& p = config_.params;
    const abp::Lattice2D lattice = p.lattice();
    double quiet = 0.0, noisy = 0.0;
    for (std::size_t i = 0; i < sizes_.noise_pairs; ++i) {
      const std::uint64_t seed = abp::derive_seed(options_.seed, 5, i);
      const abp::PerBeaconNoiseModel m0(p.range, 0.0, seed);
      const abp::PerBeaconNoiseModel m5(p.range, 0.5, seed);
      abp::BeaconField field(p.bounds(), m5.max_range());
      abp::Rng rng(abp::derive_seed(seed, 1));
      abp::scatter_uniform(field, kNoiseCheckBeacons, rng);
      abp::ErrorMap a(lattice), b(lattice);
      a.compute(field, m0);
      b.compute(field, m5);
      quiet += a.mean();
      noisy += b.mean();
    }
    result.check(noisy >= quiet,
                 "paper-sweep: noise 0.5 mean LE below noise 0 at 40 beacons");
  }

  /// Replays `run_trial`'s loc and field calls on fresh copies of the
  /// set-up cells, timing each, and folds in the sweep's propose spans.
  void layer_metrics(const SpanLog& trace, const Round& r,
                     LayerMetrics& out) const {
    const abp::PaperParams& p = config_.params;
    const abp::Lattice2D lattice = p.lattice();
    std::vector<double> scatter, compute, ns_pair, add, med, snap, restore,
        survey_us;
    double step_us = 0.0;  // replayed per-trial time, summed
    std::size_t i = 0;
    for (double noise : config_.noise_levels) {
      for (std::size_t count : config_.beacon_counts) {
        const std::uint64_t seed = abp::derive_seed(field_seed_, i++);
        const abp::PerBeaconNoiseModel model(p.range, noise,
                                             abp::derive_seed(seed, 2));
        abp::BeaconField field(p.bounds(), model.max_range());
        abp::Rng rng(abp::derive_seed(seed, 1));
        double t = now_s();
        abp::scatter_uniform(field, count, rng);
        scatter.push_back((now_s() - t) * 1e6);
        abp::ErrorMap map(lattice);
        t = now_s();
        map.compute(field, model);
        const double c_us = (now_s() - t) * 1e6;
        compute.push_back(c_us / 1e3);
        std::size_t pairs = 0;
        for (std::size_t k = 0; k < lattice.size(); ++k) pairs += map.connected(k);
        if (pairs > 0) ns_pair.push_back(c_us * 1e3 / static_cast<double>(pairs));
        t = now_s();
        map.median();
        med.push_back((now_s() - t) * 1e6);
        t = now_s();
        const abp::SurveyData survey = abp::SurveyData::from_error_map(map);
        survey_us.push_back((now_s() - t) * 1e6);
        t = now_s();
        const abp::ErrorMap before = map;
        snap.push_back((now_s() - t) * 1e6);
        double trial_us = scatter.back() + c_us + med.back() +
                          survey_us.back() + snap.back();
        abp::Rng pos_rng(abp::derive_seed(seed, 7));
        for (std::size_t a = 0; a < algorithms_.size(); ++a) {
          const abp::Vec2 pos{pos_rng.uniform(0.0, p.side),
                              pos_rng.uniform(0.0, p.side)};
          const abp::BeaconId id = field.add(pos);
          t = now_s();
          map.apply_addition(field, model, *field.get(id));
          add.push_back((now_s() - t) * 1e6);
          t = now_s();
          map.median();
          med.push_back((now_s() - t) * 1e6);
          field.remove(id);
          t = now_s();
          map = before;
          restore.push_back((now_s() - t) * 1e6);
          trial_us += add.back() + med.back() + restore.back();
        }
        step_us += trial_us;
      }
    }
    put(out, "field.scatter_uniform_us", median(scatter), "us", scatter.size());
    put(out, "loc.error_map.compute_ms", median(compute), "ms", compute.size());
    put(out, "loc.error_map.apply_addition_us", median(add), "us", add.size());
    put(out, "loc.error_map.median_us", median(med), "us", med.size());
    std::vector<double> snap_restore = snap;
    snap_restore.insert(snap_restore.end(), restore.begin(), restore.end());
    put(out, "loc.error_map.snapshot_restore_us", median(snap_restore), "us",
        snap_restore.size());
    put(out, "loc.survey_data.from_error_map_us", median(survey_us), "us",
        survey_us.size());
    put(out, "loc.error_map.ns_per_connected_pair", median(ns_pair), "ns",
        ns_pair.size());
    double propose_total_us = 0.0;
    for (const char* alg : {"random", "max", "grid"}) {
      const std::string span = std::string("placement.") + alg + ".propose";
      const std::vector<double> d = trace.durations_us(span);
      for (double x : d) propose_total_us += x;
      put(out, span + "_us", median(d), "us", d.size());
    }
    // Busy thread-time per sweep trial against the time the replayed calls
    // and the traced proposals account for per trial.
    const double trials = static_cast<double>(total_trials());
    const double busy_per_trial_us = r.busy_s * 1e6 * options_.nproc / trials;
    const double traced_per_trial_us =
        step_us / static_cast<double>(cells()) + propose_total_us / trials;
    put(out, "eval.traced_share", traced_per_trial_us / busy_per_trial_us,
        "ratio", static_cast<std::size_t>(trials));
    put(out, "eval.thread_speedup", thread_speedup_, "ratio", options_.nproc);
  }

  RunOptions options_;
  Sizes sizes_;
  abp::SweepConfig config_;
  abp::RandomPlacement random_;
  abp::MaxPlacement max_;
  abp::GridPlacement grid_;
  std::vector<const PlacementAlgorithm*> algorithms_;
  std::vector<std::vector<TrialOp>> latency_ops_;
  std::vector<std::size_t> checked_cells_;
  std::uint64_t field_seed_ = 0;
  std::uint64_t digest_ = 0;
  bool checked_ = false;
  std::atomic<bool> latency_bad_{false};
  double thread_speedup_ = 0.0;
  std::unique_ptr<abp::SweepOutcome> first_outcome_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep(const RunOptions& options) {
  return std::make_unique<PaperSweep>(options);
}

}  // namespace perfbench
