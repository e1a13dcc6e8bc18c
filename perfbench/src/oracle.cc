#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace perfbench::oracle {

std::vector<abp::Beacon> active_beacons(const abp::BeaconField& field) {
  std::vector<abp::Beacon> out;
  field.for_each_active([&](const abp::Beacon& b) { out.push_back(b); });
  std::sort(out.begin(), out.end(),
            [](const abp::Beacon& a, const abp::Beacon& b) {
              return a.id < b.id;
            });
  return out;
}

Fix localize(const std::vector<abp::Beacon>& beacons,
             const abp::PropagationModel& model, abp::Vec2 point) {
  double sx = 0.0, sy = 0.0, ax = 0.0, ay = 0.0;
  std::uint32_t n = 0;
  for (const abp::Beacon& b : beacons) {
    ax += b.pos.x;
    ay += b.pos.y;
    if (model.connected(b, point)) {
      sx += b.pos.x;
      sy += b.pos.y;
      ++n;
    }
  }
  Fix fix;
  fix.connected = n;
  if (n > 0) {
    fix.estimate = {sx / n, sy / n};
  } else if (!beacons.empty()) {
    const double all = static_cast<double>(beacons.size());
    fix.estimate = {ax / all, ay / all};
  }
  fix.error = std::hypot(fix.estimate.x - point.x, fix.estimate.y - point.y);
  return fix;
}

std::vector<double> error_map(const std::vector<abp::Beacon>& beacons,
                              const abp::PropagationModel& model,
                              const abp::Lattice2D& lattice) {
  std::vector<double> le(lattice.size());
  for (std::size_t flat = 0; flat < lattice.size(); ++flat) {
    le[flat] = localize(beacons, model, lattice.point(flat)).error;
  }
  return le;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_error(const std::vector<double>& le) {
  return le.empty() ? 0.0 : *std::max_element(le.begin(), le.end());
}

double grid_cumulative(const std::vector<double>& le,
                       const abp::Lattice2D& lattice, abp::Vec2 center,
                       double half) {
  // Boundary points count; a small slack absorbs the centre arithmetic.
  const double slack = 1e-9;
  double sum = 0.0;
  for (std::size_t flat = 0; flat < lattice.size(); ++flat) {
    const abp::Vec2 p = lattice.point(flat);
    if (std::abs(p.x - center.x) <= half + slack &&
        std::abs(p.y - center.y) <= half + slack) {
      sum += le[flat];
    }
  }
  return sum;
}

std::vector<abp::Vec2> grid_centers(const abp::AABB& bounds,
                                    std::size_t num_grids, double range) {
  const auto m = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(num_grids))));
  const double side = 2.0 * range;
  const double sx = (bounds.width() - side) / static_cast<double>(m - 1);
  const double sy = (bounds.height() - side) / static_cast<double>(m - 1);
  std::vector<abp::Vec2> out;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      out.push_back({bounds.lo.x + side / 2.0 + static_cast<double>(i) * sx,
                     bounds.lo.y + side / 2.0 + static_cast<double>(j) * sy});
    }
  }
  return out;
}

}  // namespace perfbench::oracle
