// Per-test-case temp paths for file fixtures.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace sjs::testing_paths {

/// A temp path of the running test case's own: ctest runs every case in its
/// own process, in parallel, so a path shared by a fixture's cases races.
inline std::string case_temp_path(const std::string& stem,
                                  const std::string& ext) {
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (std::filesystem::temp_directory_path() / (stem + "_" + name + ext))
      .string();
}

}  // namespace sjs::testing_paths
