/// Property tests for Grid's summed-area scoring (placement/grid_placement.h)
/// against the direct loop it replaced.
///
/// `GridPlacement::scores` sums each grid from 2D prefix tables in int64
/// fixed point (2⁻³² m units). The oracle below is the paper's O(NG · PG)
/// loop: one `for_each_in_box` walk per grid, summing measured values in
/// double. Point counts and centres must match it exactly; cumulative errors
/// within PG · 2⁻³² m; and `propose` must pick the oracle's grid wherever
/// the oracle's top two scores differ by more than that bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <vector>

#include "common/assert.h"
#include "eval/runner.h"
#include "placement/grid_placement.h"
#include "rng/rng.h"

namespace abp {
namespace {

constexpr double kQuantum = 0x1.0p-32;  // one fixed-point unit, in m

/// The direct loop `GridPlacement::scores` ran before summed-area scoring,
/// reproduced verbatim. This is the oracle every score is checked against.
std::vector<GridPlacement::GridScore> oracle_scores(
    const PlacementContext& ctx, std::size_t per_axis,
    double grid_side_factor) {
  const SurveyData& survey = *ctx.survey;
  const Lattice2D& lattice = survey.lattice();
  const AABB& bounds = ctx.bounds;
  const double grid_side = grid_side_factor * ctx.nominal_range;
  const double m = static_cast<double>(per_axis);
  const double span_x = bounds.width() - grid_side;
  const double span_y = bounds.height() - grid_side;

  std::vector<GridPlacement::GridScore> out;
  for (std::size_t j = 1; j <= per_axis; ++j) {
    for (std::size_t i = 1; i <= per_axis; ++i) {
      const Vec2 center{
          bounds.lo.x + grid_side / 2.0 +
              (static_cast<double>(i) - 1.0) * span_x / (m - 1.0),
          bounds.lo.y + grid_side / 2.0 +
              (static_cast<double>(j) - 1.0) * span_y / (m - 1.0)};
      GridPlacement::GridScore score;
      score.center = center;
      const AABB cell = AABB::centered(center, grid_side / 2.0,
                                       grid_side / 2.0);
      lattice.for_each_in_box(cell, [&](std::size_t flat, Vec2) {
        if (!survey.measured(flat)) return;
        score.cumulative_error += survey.value(flat);
        ++score.points;
      });
      out.push_back(score);
    }
  }
  return out;
}

/// The oracle's argmax: strict `>` in row-major order.
std::size_t oracle_best(const std::vector<GridPlacement::GridScore>& scores,
                        bool normalized) {
  std::size_t best = 0;
  for (std::size_t k = 0; k < scores.size(); ++k) {
    if (scores[k].score(normalized) > scores[best].score(normalized)) {
      best = k;
    }
  }
  return best;
}

/// Best minus second-best oracle score (0 when the best is tied).
double top_two_gap(const std::vector<GridPlacement::GridScore>& scores,
                   bool normalized) {
  std::vector<double> values;
  for (const auto& s : scores) values.push_back(s.score(normalized));
  std::partial_sort(values.begin(), values.begin() + 2, values.end(),
                    std::greater<>());
  return values[0] - values[1];
}

/// The largest quantization bound over all grids: PG · 2⁻³² m.
double score_bound(const std::vector<GridPlacement::GridScore>& scores) {
  std::size_t pg = 0;
  for (const auto& s : scores) pg = std::max(pg, s.points);
  return static_cast<double>(pg) * kQuantum;
}

enum class SurveyKind { kFull, kPartial, kSuppressed };

const char* kind_name(SurveyKind kind) {
  switch (kind) {
    case SurveyKind::kFull: return "full";
    case SurveyKind::kPartial: return "partial";
    case SurveyKind::kSuppressed: return "suppress_disk";
  }
  return "?";
}

/// Random errors in [0, 50) m: everywhere (full), on about a third of the
/// points outside an unvisited quadrant (partial), or everywhere with two
/// disks zeroed by `suppress_disk`.
SurveyData make_survey(const Lattice2D& lattice, SurveyKind kind,
                       std::uint64_t seed) {
  Rng rng(seed);
  SurveyData survey(lattice);
  const Vec2 mid = lattice.bounds().center();
  lattice.for_each([&](std::size_t flat, Vec2 p) {
    const double value = rng.uniform(0.0, 50.0);
    if (kind == SurveyKind::kPartial &&
        ((p.x > mid.x && p.y > mid.y) || !rng.bernoulli(0.35))) {
      return;
    }
    survey.record(flat, value);
  });
  if (kind == SurveyKind::kSuppressed) {
    survey.suppress_disk(mid, 15.0);
    survey.suppress_disk(lattice.bounds().lo + Vec2{20.0, 70.0}, 12.0);
  }
  return survey;
}

/// Checks `alg` against the oracle on one context; returns how many of
/// the two variants' proposals were compared (gap above the bound).
int expect_matches_oracle(const PlacementContext& ctx, std::size_t ng,
                          double factor) {
  const GridPlacement alg(ng, factor);
  const auto expected = oracle_scores(ctx, alg.grids_per_axis(), factor);
  const auto actual = alg.scores(ctx);
  EXPECT_EQ(actual.size(), ng);
  if (actual.size() != expected.size()) return 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(actual[k].center, expected[k].center) << "grid " << k;
    EXPECT_EQ(actual[k].points, expected[k].points) << "grid " << k;
    EXPECT_NEAR(actual[k].cumulative_error, expected[k].cumulative_error,
                static_cast<double>(expected[k].points) * kQuantum)
        << "grid " << k;
  }
  const double bound = score_bound(expected);
  int compared = 0;
  for (const bool normalized : {false, true}) {
    if (top_two_gap(expected, normalized) <= bound) continue;
    const GridPlacement variant(ng, factor, normalized);
    Rng rng(1);
    EXPECT_EQ(variant.propose(ctx, rng),
              expected[oracle_best(expected, normalized)].center)
        << (normalized ? "grid-norm" : "grid");
    ++compared;
  }
  return compared;
}

TEST(GridOracle, ScoresAndProposalsMatchTheDirectLoop) {
  const AABB terrain = AABB::square(100.0);
  // ctx.bounds equal to the lattice, or larger than and offset from it.
  const AABB wide({-6.25, -11.5}, {121.75, 104.0});
  int compared = 0;
  int cases = 0;
  for (const double step : {0.5, 1.0, 2.5}) {
    const Lattice2D lattice(terrain, step);
    for (const SurveyKind kind :
         {SurveyKind::kFull, SurveyKind::kPartial, SurveyKind::kSuppressed}) {
      const SurveyData survey =
          make_survey(lattice, kind, 17 + static_cast<std::uint64_t>(kind));
      for (const AABB& bounds : {terrain, wide}) {
        const auto ctx = PlacementContext::basic(survey, bounds, 15.0);
        for (const std::size_t ng : {4u, 100u, 400u, 900u}) {
          for (const double factor : {1.0, 2.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "step " << step << ", " << kind_name(kind)
                         << ", bounds " << bounds.lo << '-' << bounds.hi
                         << ", NG " << ng << ", factor " << factor);
            compared += expect_matches_oracle(ctx, ng, factor);
            cases += 2;
          }
        }
      }
    }
  }
  // Random values leave near-ties rare: nearly every proposal is compared.
  EXPECT_GT(compared, cases * 9 / 10);
}

TEST(GridOracle, LatticeOffsetFromTheOrigin) {
  // A lattice whose corner is not at the origin, under wider bounds: the
  // per-axis ranges must read the lattice's own coordinates.
  const Lattice2D lattice(AABB({2.5, -5.0}, {102.5, 95.0}), 1.0);
  const SurveyData survey = make_survey(lattice, SurveyKind::kFull, 5);
  const auto ctx = PlacementContext::basic(
      survey, AABB({-3.7, -8.2}, {108.9, 99.1}), 15.0);
  EXPECT_GT(expect_matches_oracle(ctx, 400, 2.0), 0);
  EXPECT_GT(expect_matches_oracle(ctx, 100, 1.0), 0);
}

/// Mirror-symmetric survey about x = 50: two equal hot spots at x = 30 and
/// x = 70, y = 50, with value `unit` × (a function of integer offsets).
SurveyData mirrored_survey(const Lattice2D& lattice, double unit) {
  SurveyData survey(lattice);
  lattice.for_each([&](std::size_t flat, Vec2) {
    const auto [i, j] = lattice.coords(flat);
    const long dx = std::labs(std::labs(static_cast<long>(i) - 50) - 20);
    const long dy = std::labs(static_cast<long>(j) - 50);
    survey.record(flat,
                  unit * static_cast<double>(std::max(0L, 40 - dx - dy)));
  });
  return survey;
}

TEST(GridOracle, MirrorTieGoesToTheFirstRowMajorGrid) {
  const Lattice2D lattice(AABB::square(100.0), 1.0);
  const GridPlacement alg(400);
  // 0.25 m units sum exactly in double too, so the oracle ties as well;
  // 0.1 m units do not, and only the fixed-point sums are sure to tie.
  for (const double unit : {0.25, 0.1}) {
    SCOPED_TRACE(::testing::Message() << "unit " << unit);
    const SurveyData survey = mirrored_survey(lattice, unit);
    const auto ctx =
        PlacementContext::basic(survey, AABB::square(100.0), 15.0);
    const auto scores = alg.scores(ctx);
    const std::size_t m = alg.grids_per_axis();
    double best = -1.0;
    for (const auto& s : scores) best = std::max(best, s.cumulative_error);
    std::size_t first = scores.size();
    for (std::size_t k = 0; k < scores.size(); ++k) {
      // Grid (i, j) and its mirror (m-1-i, j) tie exactly.
      const std::size_t i = k % m;
      const std::size_t mirror = k - i + (m - 1 - i);
      EXPECT_EQ(scores[k].cumulative_error, scores[mirror].cumulative_error)
          << "grid " << k;
      EXPECT_EQ(scores[k].points, scores[mirror].points) << "grid " << k;
      if (first == scores.size() && scores[k].cumulative_error == best) {
        first = k;
      }
    }
    ASSERT_LT(first, scores.size());
    EXPECT_LT(scores[first].center.x, 50.0);
    Rng rng(3);
    EXPECT_EQ(alg.propose(ctx, rng), scores[first].center);
    if (unit == 0.25) {
      const auto expected = oracle_scores(ctx, m, 2.0);
      EXPECT_EQ(expected[oracle_best(expected, false)].center,
                scores[first].center);
    }
  }
}

TEST(GridOracle, OverflowCheckFires) {
  // PT × max|value| × 2³² must stay below 2⁶²: about 105 km per value on
  // the paper's 10 201-point lattice.
  const Lattice2D lattice(AABB::square(100.0), 1.0);
  const GridPlacement alg(400);
  SurveyData survey(lattice);
  survey.record(lattice.index(40, 40), 1.0e5);
  survey.record(lattice.index(60, 60), 1.0e5);
  const auto ctx = PlacementContext::basic(survey, AABB::square(100.0), 15.0);
  const auto scores = alg.scores(ctx);
  EXPECT_EQ(scores.size(), 400u);

  survey.record(lattice.index(50, 50), 1.0e6);
  EXPECT_THROW(alg.scores(ctx), CheckFailure);
  survey.record(lattice.index(50, 50),
                std::numeric_limits<double>::infinity());
  EXPECT_THROW(alg.scores(ctx), CheckFailure);
}

/// Grid that also runs the oracle on every proposal it makes inside a
/// sweep and counts disagreements beyond the quantization bound.
class OracleCheckedGrid final : public PlacementAlgorithm {
 public:
  std::string name() const override { return grid_.name(); }
  Vec2 propose(const PlacementContext& ctx, Rng& rng) const override {
    const Vec2 pick = grid_.propose(ctx, rng);
    const auto expected = oracle_scores(ctx, grid_.grids_per_axis(), 2.0);
    ++proposals;
    if (top_two_gap(expected, false) > score_bound(expected) &&
        !(expected[oracle_best(expected, false)].center == pick)) {
      ++mismatches;
    }
    return pick;
  }

  mutable std::atomic<int> proposals{0};
  mutable std::atomic<int> mismatches{0};

 private:
  GridPlacement grid_;
};

TEST(GridOracle, PaperSweepProposalsMatchTheOracle) {
  SweepConfig config;  // Table 1: Side 100, R 15, 1 m lattice, NG 400
  config.beacon_counts = {20, 60, 120, 240};
  config.noise_levels = {0.0, 0.5};
  config.trials = 3;
  config.threads = 2;
  const OracleCheckedGrid grid;
  const PlacementAlgorithm* const algs[] = {&grid};
  run_sweep(config, algs);
  EXPECT_EQ(grid.proposals.load(), 4 * 2 * 3);
  EXPECT_EQ(grid.mismatches.load(), 0);
}

}  // namespace
}  // namespace abp
