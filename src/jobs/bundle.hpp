// Instance bundle persistence: a complete experiment input (job list,
// capacity sample path, declared band) saved as a directory of CSVs, so an
// instance that triggered interesting behaviour — a worst-case search hit, a
// production trace replay — can be archived and replayed bit-exactly.
//
//   <dir>/jobs.csv      id,release,workload,deadline,value
//   <dir>/capacity.csv  time,rate
//   <dir>/band.csv      c_lo,c_hi
#pragma once

#include <string>

#include "jobs/instance.hpp"

namespace sjs {

/// Writes the instance into `dir` (created if missing). Throws
/// std::runtime_error on I/O failure.
void save_instance_bundle(const Instance& instance, const std::string& dir);

/// Loads a bundle saved by save_instance_bundle. Throws std::runtime_error
/// on missing/malformed files (including a band that does not contain the
/// capacity path).
Instance load_instance_bundle(const std::string& dir);

/// Writes band.csv (c_lo,c_hi) into `dir`, which must exist. Shared with the
/// serving journals, which are bundles too.
void save_band_csv(const std::string& dir, double c_lo, double c_hi);

}  // namespace sjs
