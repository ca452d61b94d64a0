#include "common/logging.h"

#include <gtest/gtest.h>

#include <sstream>

namespace qrank {
namespace {

// Captures std::cerr for the duration of a scope.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { SetLogLevel(LogLevel::kInfo); }
};

TEST_F(LoggingTest, MessagesCarryLevelAndLocation) {
  CerrCapture capture;
  QRANK_LOG_WARN << "simulator budget " << 42 << " exceeded";
  std::string out = capture.str();
  EXPECT_NE(out.find("[WARN"), std::string::npos);
  EXPECT_NE(out.find("logging_test.cc"), std::string::npos);
  EXPECT_NE(out.find("simulator budget 42 exceeded"), std::string::npos);
}

TEST_F(LoggingTest, LevelFiltersLowerMessages) {
  SetLogLevel(LogLevel::kError);
  CerrCapture capture;
  QRANK_LOG_INFO << "hidden";
  QRANK_LOG_WARN << "also hidden";
  QRANK_LOG_ERROR << "visible";
  std::string out = capture.str();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible"), std::string::npos);
}

TEST_F(LoggingTest, DebugDisabledByDefault) {
  CerrCapture capture;
  QRANK_LOG_DEBUG << "debug detail";
  EXPECT_EQ(capture.str().find("debug detail"), std::string::npos);
  SetLogLevel(LogLevel::kDebug);
  QRANK_LOG_DEBUG << "debug detail";
  EXPECT_NE(capture.str().find("debug detail"), std::string::npos);
}

TEST_F(LoggingTest, GetLogLevelRoundTrips) {
  SetLogLevel(LogLevel::kWarn);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarn);
}

TEST_F(LoggingTest, DisabledLevelDoesNotEvaluateStream) {
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return 1;
  };
  QRANK_LOG_DEBUG << expensive();
  EXPECT_EQ(evaluations, 0);
  QRANK_LOG_ERROR << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(CheckTest, PassingCheckIsSilentAndEvaluatesOnce) {
  CerrCapture capture;
  int evaluations = 0;
  auto counted = [&]() {
    ++evaluations;
    return true;
  };
  QRANK_CHECK(counted()) << "never shown";
  EXPECT_EQ(evaluations, 1);
  EXPECT_TRUE(capture.str().empty());
}

TEST(CheckDeathTest, FailureReportsConditionLocationAndMessage) {
  EXPECT_DEATH(
      { QRANK_CHECK(1 + 1 == 3) << "arithmetic is broken, n = " << 42; },
      "QRANK_CHECK failed.*logging_test\\.cc.*1 \\+ 1 == 3.*"
      "arithmetic is broken, n = 42");
}

TEST(CheckDeathTest, MessageFreeFailureStillAborts) {
  EXPECT_DEATH({ QRANK_CHECK(false); }, "QRANK_CHECK failed");
}

TEST(CheckTest, DcheckMatchesBuildMode) {
  // QRANK_DCHECK compiles to a real check in debug builds and to a
  // never-evaluated (but still type-checked) expression in release.
  int evaluations = 0;
  auto counted = [&]() {
    ++evaluations;
    return true;
  };
  QRANK_DCHECK(counted()) << "never shown";
#ifndef NDEBUG
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);
#endif
}

#ifdef NDEBUG
TEST(CheckTest, ReleaseDcheckDoesNotEvaluateStreamOperands) {
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return 7;
  };
  QRANK_DCHECK(false) << "cost " << expensive();
  EXPECT_EQ(evaluations, 0);
}
#endif

TEST(AuditMacroTest, DisabledLevelsCompileOutButTypeCheck) {
  // At the default audit level 0 both macros are disabled expressions;
  // at level >= 1 (the sanitizer CI builds) the passing condition is
  // simply silent. Either way: no output, no abort, operands odr-used.
  CerrCapture capture;
  const size_t edges = 10;
  QRANK_AUDIT1(edges == 10) << "edge count " << edges;
  QRANK_AUDIT2(edges * 2 == 20) << "doubled " << edges;
  EXPECT_TRUE(capture.str().empty());
}

#if QRANK_AUDIT_LEVEL >= 1
TEST(AuditMacroDeathTest, Level1FailureAborts) {
  EXPECT_DEATH({ QRANK_AUDIT1(false) << "level-1 violation"; },
               "QRANK_CHECK failed.*level-1 violation");
}
#endif

}  // namespace
}  // namespace qrank
