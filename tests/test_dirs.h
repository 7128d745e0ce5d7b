// Per-process scratch directories for the suites that key caches by
// directory (jit_test.cc, shape_bucket_test.cc). Each name is unique per
// process and call, and every one is removed, with its contents, when the
// test process ends.
#ifndef SPACEFUSION_TESTS_TEST_DIRS_H_
#define SPACEFUSION_TESTS_TEST_DIRS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace spacefusion {
namespace testing_util {

// Every directory UniqueTestDir named in this process.
inline std::vector<std::string>& TestDirs() {
  static std::vector<std::string> dirs;
  return dirs;
}

// Removes the TestDirs after the last test rather than per test: shared
// executors live as long as the process and keep their kernel caches.
class TestDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    for (const std::string& dir : TestDirs()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

inline ::testing::Environment* const kTestDirCleanup =
    ::testing::AddGlobalTestEnvironment(new TestDirCleanup);

// "<temp dir><prefix>-<pid>-<tag>-<n>"; the directory is not created.
inline std::string UniqueTestDir(const std::string& prefix, const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + prefix + "-" + std::to_string(::getpid()) + "-" + tag +
                    "-" + std::to_string(counter++);
  TestDirs().push_back(dir);
  return dir;
}

}  // namespace testing_util
}  // namespace spacefusion

#endif  // SPACEFUSION_TESTS_TEST_DIRS_H_
