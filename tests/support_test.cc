#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/binary_io.h"
#include "src/support/file_util.h"
#include "src/support/logging.h"
#include "src/support/math_util.h"
#include "src/support/status.h"
#include "src/support/string_util.h"
#include "src/support/thread_pool.h"

namespace spacefusion {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Unschedulable("too big");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnschedulable);
  EXPECT_EQ(st.message(), "too big");
  EXPECT_EQ(st.ToString(), "UNSCHEDULABLE: too big");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnschedulable), "UNSCHEDULABLE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnsupported), "UNSUPPORTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DATA_LOSS");
}

TEST(StatusTest, ServingHelpersCarryTheirCodes) {
  EXPECT_EQ(DeadlineExceeded("too slow").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ResourceExhausted("quota").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(DataLoss("bad blob").code(), StatusCode::kDataLoss);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgument("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  SF_ASSIGN_OR_RETURN(int h, Half(x));
  SF_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  StatusOr<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  StatusOr<int> bad = Quarter(6);  // 6/2 = 3 is odd
  EXPECT_FALSE(bad.ok());
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(7, 2), 4);
  EXPECT_EQ(CeilDiv(8, 2), 4);
  EXPECT_EQ(CeilDiv(1, 2), 1);
  EXPECT_EQ(CeilDiv(0, 2), 0);
}

TEST(MathUtilTest, RoundUp) {
  EXPECT_EQ(RoundUp(7, 4), 8);
  EXPECT_EQ(RoundUp(8, 4), 8);
  EXPECT_EQ(RoundUp(1, 256), 256);
}

TEST(MathUtilTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(NextPowerOfTwo(5), 8);
  EXPECT_EQ(NextPowerOfTwo(8), 8);
  EXPECT_EQ(PrevPowerOfTwo(5), 4);
  EXPECT_EQ(PrevPowerOfTwo(8), 8);
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(9), 3);
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringUtilTest, StrJoin) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(StrJoin(v, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
}

TEST(StringUtilTest, StrSplit) {
  std::vector<std::string> parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("spacefusion", "space"));
  EXPECT_FALSE(StartsWith("space", "spacefusion"));
}

TEST(LoggingTest, ThresholdControlsEmission) {
  LogLevel old = GetLogThreshold();
  SetLogThreshold(LogLevel::kError);
  EXPECT_EQ(GetLogThreshold(), LogLevel::kError);

  testing::internal::CaptureStderr();
  SF_LOG(Info) << "suppressed-info";
  SF_LOG(Warning) << "suppressed-warning";
  SF_LOG(Error) << "emitted-error";
  std::string captured = testing::internal::GetCapturedStderr();

  EXPECT_EQ(captured.find("suppressed-info"), std::string::npos);
  EXPECT_EQ(captured.find("suppressed-warning"), std::string::npos);
  EXPECT_NE(captured.find("emitted-error"), std::string::npos);
  SetLogThreshold(old);
}

TEST(LoggingTest, MessagesAtOrAboveThresholdAreEmitted) {
  LogLevel old = GetLogThreshold();
  SetLogThreshold(LogLevel::kDebug);

  testing::internal::CaptureStderr();
  SF_LOG(Debug) << "debug-visible";
  SF_LOG(Info) << "info-visible";
  std::string captured = testing::internal::GetCapturedStderr();

  EXPECT_NE(captured.find("debug-visible"), std::string::npos);
  EXPECT_NE(captured.find("info-visible"), std::string::npos);
  SetLogThreshold(old);
}

TEST(LoggingTest, LineHasPrefixAndSingleTrailingNewline) {
  LogLevel old = GetLogThreshold();
  SetLogThreshold(LogLevel::kInfo);

  testing::internal::CaptureStderr();
  SF_LOG(Warning) << "format-probe";
  std::string captured = testing::internal::GetCapturedStderr();

  // "[W support_test.cc:NN] format-probe\n" — severity tag, basename (no
  // directories), and exactly one newline terminating the line.
  EXPECT_EQ(captured.find("[W support_test.cc:"), 0u);
  EXPECT_NE(captured.find("] format-probe\n"), std::string::npos);
  EXPECT_EQ(captured.find('/'), std::string::npos);
  ASSERT_FALSE(captured.empty());
  EXPECT_EQ(captured.back(), '\n');
  EXPECT_EQ(std::count(captured.begin(), captured.end(), '\n'), 1);
  SetLogThreshold(old);
}

TEST(LoggingTest, SuppressedMessageDoesNotEvaluateStreamOperands) {
  LogLevel old = GetLogThreshold();
  SetLogThreshold(LogLevel::kError);
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return "x";
  };
  SF_LOG(Info) << count();
  EXPECT_EQ(evaluations, 0);
  SF_LOG(Error) << count();
  EXPECT_EQ(evaluations, 1);
  SetLogThreshold(old);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  EXPECT_FALSE(pool.InPool());  // the test thread is not a worker

  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (std::future<void>& f : futures) {
    f.get();
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f = pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);

  // The worker that ran the throwing task must survive for later tasks.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);

  std::thread::id submit_thread;
  pool.Submit([&submit_thread] { submit_thread = std::this_thread::get_id(); }).get();
  EXPECT_EQ(submit_thread, std::this_thread::get_id());
}

// A task that submits a subtask and blocks on its future would deadlock a
// one-worker pool without the inline-execution guard.
TEST(ThreadPoolTest, NestedSubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<bool> inner_ran{false};
  std::atomic<bool> was_in_pool{false};
  pool.Submit([&] {
      was_in_pool = pool.InPool();
      pool.Submit([&inner_ran] { inner_ran = true; }).get();
    })
      .get();
  EXPECT_TRUE(was_in_pool.load());
  EXPECT_TRUE(inner_ran.load());
}

// ---------------------------------------------------------------------------
// AtomicWriteFile: the write-tmp-then-rename discipline shared by the report
// sink and the persistent program cache. The invariant under test: a file
// that exists at the final path is complete — a reader can never load a
// partial write.

TEST(FileUtilTest, AtomicWriteRoundTripsAndCreatesParents) {
  const std::string dir = testing::TempDir() + "/sf_file_util/nested/deeper";
  std::filesystem::remove_all(testing::TempDir() + "/sf_file_util");
  const std::string path = dir + "/entry.bin";
  const std::string payload("binary\0payload\n", 15);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  // Overwrite replaces atomically and leaves no temp residue behind.
  ASSERT_TRUE(AtomicWriteFile(path, "v2").ok());
  EXPECT_EQ(*ReadFileToString(path), "v2");
  EXPECT_EQ(ListDirectory(dir), std::vector<std::string>{"entry.bin"});
}

TEST(FileUtilTest, SimulatedPartialWriteIsNeverLoaded) {
  const std::string dir = testing::TempDir() + "/sf_file_util_partial";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/entry.bin";
  // A writer that crashed mid-write leaves only a "<name>.tmp.<pid>.<seq>"
  // torso. Simulate one: the final path must stay invisible to readers.
  ASSERT_TRUE(AtomicWriteFile(dir + "/placeholder", "").ok());  // create dir
  {
    std::FILE* f = std::fopen((path + ".tmp.12345.0").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torso of an interrupted wr", f);
    std::fclose(f);
  }
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);

  // A later complete write wins, and the stale torso stays inert.
  ASSERT_TRUE(AtomicWriteFile(path, "complete").ok());
  EXPECT_EQ(*ReadFileToString(path), "complete");
}

TEST(FileUtilTest, FailedWriteLeavesTheTargetUntouched) {
  const std::string dir = testing::TempDir() + "/sf_file_util_fail";
  std::filesystem::remove_all(dir);
  const std::string blocker = dir + "/blocker";
  ASSERT_TRUE(AtomicWriteFile(blocker, "intact").ok());
  // blocker is a regular file, so nothing can be written "inside" it.
  EXPECT_FALSE(AtomicWriteFile(blocker + "/child", "x").ok());
  EXPECT_EQ(*ReadFileToString(blocker), "intact");
}

TEST(FileUtilTest, ListDirectorySortsAndSkipsMissing) {
  const std::string dir = testing::TempDir() + "/sf_file_util_list";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(AtomicWriteFile(dir + "/b", "1").ok());
  ASSERT_TRUE(AtomicWriteFile(dir + "/a", "2").ok());
  EXPECT_EQ(ListDirectory(dir), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(ListDirectory(dir + "/no_such_dir").empty());
}

// ---------------------------------------------------------------------------
// Binary encoding: bit-exact doubles and a reader that treats its input as
// hostile.

TEST(BinaryIoTest, ScalarsRoundTripBitExactly) {
  ByteWriter w;
  w.U8(0xab);
  w.Bool(true);
  w.U32(0xdeadbeef);
  w.I64(-42);
  w.F64(0.1);     // not representable exactly in decimal
  w.F64(-0.0);    // sign bit must survive
  w.F64(5e-324);  // smallest denormal
  w.Str("schedule");
  const std::string bytes = w.bytes();

  ByteReader r(bytes);
  std::uint8_t u8 = 0;
  bool b = false;
  std::uint32_t u32 = 0;
  std::int64_t i64 = 0;
  double d1 = 0, d2 = 0, d3 = 0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.Bool(&b).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&d1).ok());
  ASSERT_TRUE(r.F64(&d2).ok());
  ASSERT_TRUE(r.F64(&d3).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(b);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d1, 0.1);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_EQ(d3, 5e-324);
  EXPECT_EQ(s, "schedule");
}

TEST(BinaryIoTest, EveryTruncationFailsCleanly) {
  ByteWriter w;
  w.U64(7);
  w.Str("hello");
  w.I64Vec({1, 2, 3});
  const std::string bytes = w.bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string cut = bytes.substr(0, len);
    ByteReader r(cut);
    std::uint64_t u = 0;
    std::string s;
    std::vector<std::int64_t> v;
    // Some prefix of the reads fails; none may crash or read past the end.
    Status st = r.U64(&u);
    if (st.ok()) {
      st = r.Str(&s);
    }
    if (st.ok()) {
      st = r.I64Vec(&v);
    }
    EXPECT_FALSE(st.ok()) << "length " << len;
  }
}

TEST(BinaryIoTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // A corrupted count claiming 2^60 elements must fail the remaining-bytes
  // check instead of trying to reserve exabytes.
  ByteWriter w;
  w.U64(1ULL << 60);
  const std::string bytes = w.bytes();
  ByteReader r(bytes);
  std::vector<std::int64_t> v;
  EXPECT_FALSE(r.I64Vec(&v).ok());
  EXPECT_TRUE(v.empty());

  ByteReader r2(bytes);
  std::string s;
  EXPECT_FALSE(r2.Str(&s).ok());
}

TEST(BinaryIoTest, NonCanonicalBoolByteIsRejected) {
  // Canonical serialization admits exactly one encoding per value.
  std::string two("\x02", 1);
  ByteReader r(two);
  bool b = false;
  EXPECT_FALSE(r.Bool(&b).ok());
}

TEST(BinaryIoTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace spacefusion
