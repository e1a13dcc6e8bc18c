#include "placement/grid_placement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace abp {

namespace {

/// Fixed-point scale of the summed-area tables: one unit is 2⁻³² m. Every
/// measured value is rounded to this grid once, so a grid's cumulative
/// error is an exact int64 sum whatever order its terms are added in.
constexpr double kFixedScale = 4294967296.0;  // 2³²

/// |sum| must stay below this for every rectangle of the survey; half of
/// the int64 range leaves room for the per-value rounding.
constexpr double kFixedLimit = 4611686018427387904.0;  // 2⁶²

/// One grid's centre along one axis and the lattice ordinates
/// [first, end) it covers there.
struct AxisGrid {
  double center = 0.0;
  std::size_t first = 0;
  std::size_t end = 0;
};

/// `coords` holds the axis's lattice coordinates, non-decreasing. An
/// ordinate is covered when `lo <= c && c <= hi` — the inclusive test
/// `AABB::contains` makes on `Lattice2D::point` — and since the
/// coordinates are monotone the covered ordinates are one run.
std::vector<AxisGrid> axis_grids(const std::vector<double>& coords,
                                 double lo_bound, double grid_side,
                                 double span, std::size_t per_axis) {
  const double m = static_cast<double>(per_axis);
  const double half = grid_side / 2.0;
  std::vector<AxisGrid> out;
  out.reserve(per_axis);
  for (std::size_t i = 1; i <= per_axis; ++i) {
    // Paper §3.2.3 step 3.2 (generalized to rectangle bounds):
    //   Xc = gridSide/2 + (i-1)(Side - gridSide)/(sqrt(NG) - 1).
    const double center = lo_bound + grid_side / 2.0 +
                          (static_cast<double>(i) - 1.0) * span / (m - 1.0);
    // The same corners `AABB::centered(center, half, half)` computes.
    const double lo = center - half;
    const double hi = center + half;
    const auto first = std::partition_point(
        coords.begin(), coords.end(), [lo](double c) { return c < lo; });
    const auto end = std::partition_point(
        first, coords.end(), [hi](double c) { return c <= hi; });
    out.push_back({center, static_cast<std::size_t>(first - coords.begin()),
                   static_cast<std::size_t>(end - coords.begin())});
  }
  return out;
}

}  // namespace

GridPlacement::GridPlacement(std::size_t num_grids, double grid_side_factor,
                             bool normalized)
    : num_grids_(num_grids), grid_side_factor_(grid_side_factor),
      normalized_(normalized) {
  per_axis_ = static_cast<std::size_t>(std::llround(
      std::sqrt(static_cast<double>(num_grids))));
  ABP_CHECK(per_axis_ * per_axis_ == num_grids_,
            "NG must be a perfect square");
  ABP_CHECK(per_axis_ >= 2, "need at least 2 grids per axis");
  ABP_CHECK(grid_side_factor > 0.0, "grid side factor must be positive");
}

std::vector<GridPlacement::GridScore> GridPlacement::scores(
    const PlacementContext& ctx) const {
  ABP_CHECK(ctx.survey != nullptr, "Grid requires survey data");
  ABP_CHECK(ctx.nominal_range > 0.0, "Grid requires the nominal range R");
  const SurveyData& survey = *ctx.survey;
  const Lattice2D& lattice = survey.lattice();
  const AABB& bounds = ctx.bounds;

  const double grid_side = grid_side_factor_ * ctx.nominal_range;
  ABP_CHECK(grid_side <= bounds.width() && grid_side <= bounds.height(),
            "gridSide = 2R exceeds the terrain — Grid is undefined");

  const std::size_t nx = lattice.nx();
  const std::size_t ny = lattice.ny();

  // Inclusive 2D prefix sums with a zero first row and column:
  // sum[j·w + i] is the fixed-point total of the measured values at the
  // ordinates (i', j') with i' < i and j' < j, and count[j·w + i] the
  // number of measured points there. PT × max value × 2³² must fit, so
  // every rectangle's total does.
  const double value_limit =
      kFixedLimit / kFixedScale / static_cast<double>(lattice.size());
  const std::size_t w = nx + 1;
  std::vector<std::int64_t> sum(w * (ny + 1), 0);
  std::vector<std::int64_t> count(w * (ny + 1), 0);
  for (std::size_t j = 0; j < ny; ++j) {
    std::int64_t row_sum = 0;
    std::int64_t row_count = 0;
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t flat = lattice.index(i, j);
      if (survey.measured(flat)) {
        const double value = survey.value(flat);
        ABP_CHECK(value <= value_limit,
                  "measured error too large for Grid's fixed-point sums");
        // Measured errors are non-negative, so adding ½ and truncating
        // rounds to the nearest unit without a libm call.
        row_sum += static_cast<std::int64_t>(value * kFixedScale + 0.5);
        ++row_count;
      }
      sum[(j + 1) * w + i + 1] = sum[j * w + i + 1] + row_sum;
      count[(j + 1) * w + i + 1] = count[j * w + i + 1] + row_count;
    }
  }

  std::vector<double> xs(nx);
  std::vector<double> ys(ny);
  for (std::size_t i = 0; i < nx; ++i) xs[i] = lattice.point(i, 0).x;
  for (std::size_t j = 0; j < ny; ++j) ys[j] = lattice.point(0, j).y;
  const auto gx = axis_grids(xs, bounds.lo.x, grid_side,
                             bounds.width() - grid_side, per_axis_);
  const auto gy = axis_grids(ys, bounds.lo.y, grid_side,
                             bounds.height() - grid_side, per_axis_);

  // Total over the rectangle [x.first, x.end) × [y.first, y.end); each
  // bracket is itself a strip's total, so no step can overflow.
  const auto rect = [w](const std::vector<std::int64_t>& table,
                        const AxisGrid& x, const AxisGrid& y) {
    return (table[y.end * w + x.end] - table[y.first * w + x.end]) -
           (table[y.end * w + x.first] - table[y.first * w + x.first]);
  };

  std::vector<GridScore> out;
  out.reserve(num_grids_);
  for (const AxisGrid& y : gy) {
    for (const AxisGrid& x : gx) {
      GridScore score;
      score.center = {x.center, y.center};
      score.cumulative_error =
          static_cast<double>(rect(sum, x, y)) / kFixedScale;
      score.points = static_cast<std::size_t>(rect(count, x, y));
      out.push_back(score);
    }
  }
  return out;
}

Vec2 GridPlacement::propose(const PlacementContext& ctx, Rng&) const {
  const auto all = scores(ctx);
  ABP_CHECK(!all.empty(), "no candidate grids");
  const GridScore* best = &all.front();
  for (const auto& s : all) {
    if (s.score(normalized_) > best->score(normalized_)) best = &s;
  }
  return best->center;
}

}  // namespace abp
