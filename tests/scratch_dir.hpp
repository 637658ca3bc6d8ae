// A per-test scratch directory. ctest runs every test case as its own
// process, in parallel, so a directory shared by two cases lets one case
// delete the other's files mid-run. The name comes from the running test
// (suite and name, plus an optional suffix for a test that needs several),
// so no two cases ever share one.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace rh::test {

/// Created empty in the working directory on construction, removed with
/// everything in it on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string& suffix = "") {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::string(info->test_suite_name()) + "." + info->name();
    if (!suffix.empty()) path_ += "." + suffix;
    // Parameterized tests carry '/' in their names; keep the path one level.
    std::replace(path_.begin(), path_.end(), '/', '_');
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& str() const { return path_; }
  /// `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
  std::string path_;
};

}  // namespace rh::test
