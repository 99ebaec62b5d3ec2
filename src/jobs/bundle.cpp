#include "jobs/bundle.hpp"

#include <filesystem>
#include <stdexcept>

#include "capacity/trace_io.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs {

namespace fs = std::filesystem;

void save_instance_bundle(const Instance& instance, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create bundle directory " + dir + ": " +
                             ec.message());
  }
  instance.save_jobs((fs::path(dir) / "jobs.csv").string());
  cap::save_trace(instance.capacity(),
                  (fs::path(dir) / "capacity.csv").string());
  save_band_csv(dir, instance.c_lo(), instance.c_hi());
}

void save_band_csv(const std::string& dir, double c_lo, double c_hi) {
  CsvWriter band((fs::path(dir) / "band.csv").string());
  band.write_row({"c_lo", "c_hi"});
  const double row[] = {c_lo, c_hi};
  band.write_row_numeric(row, 2);
}

Instance load_instance_bundle(const std::string& dir) {
  const auto jobs_path = (fs::path(dir) / "jobs.csv").string();
  const auto capacity_path = (fs::path(dir) / "capacity.csv").string();
  const auto band_path = (fs::path(dir) / "band.csv").string();

  auto jobs = Instance::load_jobs(jobs_path);
  auto capacity = cap::load_trace(capacity_path);

  // Header row plus one data row.
  NumericCsvReader band(band_path, "band");
  if (!band.next() || !band.next()) {
    throw std::runtime_error("malformed band.csv in " + dir);
  }
  band.expect_fields(2);
  const double c_lo = band.number(0);
  const double c_hi = band.number(1);
  if (band.next()) band.fail("is one row too many");
  try {
    return Instance(std::move(jobs), std::move(capacity), c_lo, c_hi);
  } catch (const CheckError& e) {
    throw std::runtime_error(std::string("inconsistent bundle: ") + e.what());
  }
}

}  // namespace sjs
