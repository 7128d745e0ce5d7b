#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

// Every operator new in this binary (replaced at the bottom of this file),
// so a test can check that a path allocates nothing.
std::atomic<long long> g_heap_allocations{0};

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
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DATA_LOSS");
}

TEST(StatusTest, ServingHelpersCarryTheirCodes) {
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

TEST(StringUtilTest, ParsePositiveIntTakesDigitsOnly) {
  EXPECT_EQ(ParsePositiveInt("1"), 1);
  EXPECT_EQ(ParsePositiveInt("0128"), 128);
  EXPECT_EQ(ParsePositiveInt("9223372036854775807"), INT64_MAX);
  for (const char* bad : {"", "0", "00", "-5", "+5", " 5", "5 ", "1e3", "64abc", "2x", "1.5",
                          "0x10", "9223372036854775808", "99999999999999999999"}) {
    EXPECT_EQ(ParsePositiveInt(bad), std::nullopt) << '"' << bad << '"';
  }
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

// ---------------------------------------------------------------------------
// KernelParallelFor: the kernel pool's documented contract. Chunk c of a
// loop covers [n*c/chunks, n*(c+1)/chunks) with chunks = min(n, workers + 1),
// and workers = CPUs in the affinity mask - 1.

long long KernelPoolWorkerCount() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  EXPECT_EQ(::sched_getaffinity(0, sizeof(cpus), &cpus), 0);
  return std::max(CPU_COUNT(&cpus) - 1, 0);
}

// What one loop did: how often each index ran (chunks are disjoint, so
// plain ints), and the chunk bounds it ran.
struct Coverage {
  explicit Coverage(long long n) : hits(static_cast<size_t>(n), 0) {}
  std::vector<int> hits;
  std::mutex mu;
  std::vector<std::pair<long long, long long>> chunks;  // guarded by mu

  bool EachIndexOnce() const {
    return std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; });
  }
};

void RecordChunk(void* ctx, long long begin, long long end) {
  auto* coverage = static_cast<Coverage*>(ctx);
  for (long long i = begin; i < end; ++i) {
    ++coverage->hits[static_cast<size_t>(i)];
  }
  std::lock_guard<std::mutex> lock(coverage->mu);
  coverage->chunks.emplace_back(begin, end);
}

TEST(KernelPoolTest, CoversEveryIndexOnceInTheDocumentedChunks) {
  const long long workers = KernelPoolWorkerCount();
  // 1,000,003 is prime: no chunk count divides it.
  for (long long n : {0LL, 1LL, 2LL, workers, workers + 1, 1000000LL, 1000003LL}) {
    Coverage coverage(n);
    KernelParallelFor(n, &RecordChunk, &coverage);
    EXPECT_TRUE(coverage.EachIndexOnce()) << "n=" << n;
    const long long chunks = std::min(n, workers + 1);
    std::vector<std::pair<long long, long long>> want;
    for (long long c = 0; c < chunks; ++c) {
      want.emplace_back(n * c / chunks, n * (c + 1) / chunks);
    }
    std::sort(coverage.chunks.begin(), coverage.chunks.end());
    EXPECT_EQ(coverage.chunks, want) << "n=" << n;
  }
}

// A loop started inside a chunk runs inline on that chunk's thread: from a
// worker, or from the caller while its own loop holds the pool.
struct NestedLoop {
  std::atomic<long long> inner_indices{0};
  std::atomic<int> inner_chunks_elsewhere{0};
};

struct InnerLoop {
  NestedLoop* outer;
  std::thread::id thread;
};

void InnerChunk(void* ctx, long long begin, long long end) {
  auto* inner = static_cast<InnerLoop*>(ctx);
  if (std::this_thread::get_id() != inner->thread) {
    ++inner->outer->inner_chunks_elsewhere;
  }
  inner->outer->inner_indices += end - begin;
}

void OuterChunk(void* ctx, long long begin, long long end) {
  auto* outer = static_cast<NestedLoop*>(ctx);
  for (long long i = begin; i < end; ++i) {
    InnerLoop inner{outer, std::this_thread::get_id()};
    KernelParallelFor(100, &InnerChunk, &inner);
  }
}

TEST(KernelPoolTest, NestedCallRunsInlineWithoutDeadlock) {
  NestedLoop loop;
  KernelParallelFor(64, &OuterChunk, &loop);
  EXPECT_EQ(loop.inner_indices.load(), 64 * 100);
  EXPECT_EQ(loop.inner_chunks_elsewhere.load(), 0);
}

TEST(KernelPoolTest, ConcurrentCallersEachCoverTheirOwnRange) {
  constexpr int kCalls = 2000;
  constexpr long long kN = 4096;
  auto caller = [](int* bad_calls) {
    for (int call = 0; call < kCalls; ++call) {
      Coverage coverage(kN);
      KernelParallelFor(kN, &RecordChunk, &coverage);
      *bad_calls += coverage.EachIndexOnce() ? 0 : 1;
    }
  };
  int bad_a = 0;
  int bad_b = 0;
  std::thread a(caller, &bad_a);
  std::thread b(caller, &bad_b);
  a.join();
  b.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

// Each loop's ctx lives on its caller's stack, and the next iteration
// reuses that stack slot: a chunk still running after its call returned
// would show as a chunk that saw `returned`, or as extra coverage.
struct StackLoop {
  std::atomic<long long> covered{0};
  std::atomic<bool> returned{false};
};

std::atomic<int> g_chunks_after_return{0};

void StackChunk(void* ctx, long long begin, long long end) {
  auto* loop = static_cast<StackLoop*>(ctx);
  if (loop->returned.load()) {
    ++g_chunks_after_return;
  }
  loop->covered += end - begin;
}

TEST(KernelPoolTest, NoChunkRunsAfterItsCallerReturns) {
  constexpr long long kN = 1024;
  for (int call = 0; call < 5000; ++call) {
    StackLoop loop;
    KernelParallelFor(kN, &StackChunk, &loop);
    loop.returned = true;
    ASSERT_EQ(loop.covered.load(), kN) << "call " << call;
  }
  EXPECT_EQ(g_chunks_after_return.load(), 0);
}

void ThrowFromChunkZero(void* ctx, long long begin, long long end) {
  *static_cast<std::atomic<long long>*>(ctx) += end - begin;
  if (begin == 0) {
    throw std::runtime_error("chunk 0 failed");
  }
}

TEST(KernelPoolTest, ChunkExceptionReachesTheCallerAfterEveryChunkRan) {
  constexpr long long kN = 1000;
  std::atomic<long long> covered{0};
  EXPECT_THROW(KernelParallelFor(kN, &ThrowFromChunkZero, &covered), std::runtime_error);
  EXPECT_EQ(covered.load(), kN);
  // The slot was released: the next loop runs on the pool as usual.
  Coverage coverage(kN);
  KernelParallelFor(kN, &RecordChunk, &coverage);
  EXPECT_TRUE(coverage.EachIndexOnce());
  EXPECT_EQ(static_cast<long long>(coverage.chunks.size()),
            std::min(kN, KernelPoolWorkerCount() + 1));
}

void AddOne(void* ctx, long long begin, long long end) {
  float* data = static_cast<float*>(ctx);
  for (long long i = begin; i < end; ++i) {
    data[i] += 1.0f;
  }
}

TEST(KernelPoolTest, CallsAllocateNothing) {
  std::vector<float> data(1 << 16, 0.0f);
  const long long n = static_cast<long long>(data.size());
  KernelParallelFor(n, &AddOne, data.data());  // the first call starts the workers
  const long long before = g_heap_allocations.load();
  for (int call = 0; call < 1000; ++call) {
    KernelParallelFor(n, &AddOne, data.data());
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0);
  EXPECT_EQ(data.front(), 1001.0f);
  EXPECT_EQ(data.back(), 1001.0f);
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

// Out of line, so no caller sees free() on a pointer from operator new.
__attribute__((noinline)) void* operator new(std::size_t size) {
  spacefusion::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }

__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
