#include "capacity/trace_io.hpp"

#include <stdexcept>

#include "util/csv.hpp"
#include "util/logging.hpp"

namespace sjs::cap {

void save_trace(const CapacityProfile& profile, const std::string& path) {
  CsvWriter writer(path);
  writer.write_row({"time", "rate"});
  const auto& times = profile.breakpoints();
  const auto& rates = profile.rates();
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double row[] = {times[i], rates[i]};
    writer.write_row_numeric(row, 2);
  }
}

CapacityProfile load_trace(const std::string& path) {
  NumericCsvReader in(path, "trace");
  std::vector<double> times;
  std::vector<double> rates;
  times.reserve(in.row_count());
  rates.reserve(in.row_count());
  while (in.next()) {
    in.expect_fields(2);
    if (in.row() == 0 && in.field(0) == "time") continue;  // optional header
    times.push_back(in.number(0));
    rates.push_back(in.number(1));
  }
  if (times.empty()) throw std::runtime_error("empty capacity trace: " + path);
  try {
    return CapacityProfile(std::move(times), std::move(rates));
  } catch (const CheckError& e) {
    throw std::runtime_error(std::string("invalid capacity trace: ") +
                             e.what());
  }
}

}  // namespace sjs::cap
