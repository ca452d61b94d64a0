// A private scratch directory for one test process's shard files.
//
// ctest runs every gtest case as its own process, in parallel under -j,
// and in-process workers mmap their shard bundles. A fixed directory
// shared by those processes lets one rewrite files another has mapped
// (SIGBUS, or a worker serving a half-written shard), so each process
// takes its own mkdtemp directory, removed again on destruction.

#ifndef QRANK_TESTS_DIST_TEMP_DIR_H_
#define QRANK_TESTS_DIST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/logging.h"

namespace qrank {

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& stem)
      : path_(::testing::TempDir() + "/" + stem + "_XXXXXX") {
    QRANK_CHECK(::mkdtemp(path_.data()) != nullptr)
        << "mkdtemp failed for " << path_;
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace qrank

#endif  // QRANK_TESTS_DIST_TEMP_DIR_H_
