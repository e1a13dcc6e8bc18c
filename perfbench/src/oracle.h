/// \file oracle.h
/// \brief Brute-force reference computations the benchmark checks the
/// program's outputs against. Nothing here uses the survey kernel, the
/// spatial index or the incremental error map: every point asks
/// `PropagationModel::connected` of every active beacon.
#pragma once

#include <cstdint>
#include <vector>

#include "field/beacon_field.h"
#include "geom/aabb.h"
#include "geom/lattice.h"
#include "radio/propagation.h"

namespace perfbench::oracle {

/// Centroid localization of a client at `point`: the centroid of every
/// connected beacon, or of all active beacons when none is heard.
struct Fix {
  abp::Vec2 estimate;
  std::uint32_t connected = 0;
  double error = 0.0;  ///< |estimate - point|
};

std::vector<abp::Beacon> active_beacons(const abp::BeaconField& field);

Fix localize(const std::vector<abp::Beacon>& beacons,
             const abp::PropagationModel& model, abp::Vec2 point);

/// LE at every lattice point, in flat order.
std::vector<double> error_map(const std::vector<abp::Beacon>& beacons,
                              const abp::PropagationModel& model,
                              const abp::Lattice2D& lattice);

double mean(const std::vector<double>& v);
/// Median of an odd-or-even sample: the average of the two middle values
/// for even sizes.
double median(std::vector<double> v);

/// The largest LE over the lattice.
double max_error(const std::vector<double>& le);

/// Cumulative LE of the lattice points inside the axis-aligned square of
/// half side `half` around `center` (boundary included).
double grid_cumulative(const std::vector<double>& le,
                       const abp::Lattice2D& lattice, abp::Vec2 center,
                       double half);

/// The paper's §3.2.3 grid centres for NG grids of side 2R over `bounds`.
std::vector<abp::Vec2> grid_centers(const abp::AABB& bounds,
                                    std::size_t num_grids, double range);

}  // namespace perfbench::oracle
