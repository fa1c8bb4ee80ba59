// AsyncFileWriter semantics: append order is preserved across buffer
// handoffs (including records larger than the buffer cap), Flush makes every
// byte durable in the stdio stream and reports a failed fflush, and a tiny
// buffer cap forces the double-buffer swap protocol through thousands of
// handoffs.
#include "common/async_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace genealog {
namespace {

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(AsyncFileWriterTest, PreservesAppendOrderAcrossHandoffs) {
  const std::string path = TempPath("async_order.bin");
  std::string want;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    {
      AsyncFileWriter writer(f, /*buffer_cap=*/64);
      for (int i = 0; i < 5000; ++i) {
        std::string rec = "rec" + std::to_string(i) + ";";
        want += rec;
        writer.Append(reinterpret_cast<const uint8_t*>(rec.data()),
                      rec.size());
      }
    }  // destructor flushes, joins and closes
  }
  EXPECT_EQ(ReadAll(path), want);
  std::remove(path.c_str());
}

TEST(AsyncFileWriterTest, RecordLargerThanBufferSplitsInOrder) {
  const std::string path = TempPath("async_big.bin");
  std::string big(1000, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  {
    AsyncFileWriter writer(f, /*buffer_cap=*/16);
    writer.Append(reinterpret_cast<const uint8_t*>(big.data()), big.size());
    writer.Flush();
  }
  EXPECT_EQ(ReadAll(path), big);
  std::remove(path.c_str());
}

TEST(AsyncFileWriterTest, FlushMakesBytesVisibleBeforeDestruction) {
  const std::string path = TempPath("async_flush.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  AsyncFileWriter writer(f, /*buffer_cap=*/1 << 20);  // never fills
  const char* msg = "hello";
  writer.Append(reinterpret_cast<const uint8_t*>(msg), 5);
  writer.Flush();
  // The writer is still alive; the bytes must already be in the file.
  EXPECT_EQ(ReadAll(path), "hello");
  writer.Append(reinterpret_cast<const uint8_t*>(msg), 5);
  writer.Flush();
  EXPECT_EQ(ReadAll(path), "hellohello");
  std::remove(path.c_str());
}

TEST(AsyncFileWriterTest, NoWriteErrorOnHealthyFile) {
  const std::string path = TempPath("async_ok.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  {
    AsyncFileWriter writer(f, 32);
    std::vector<uint8_t> data(10000, 0x5a);
    writer.Append(data.data(), data.size());
    writer.Flush();
    EXPECT_FALSE(writer.write_error());
  }
  std::remove(path.c_str());
}

TEST(AsyncFileWriterTest, FailedTailFlushIsAWriteError) {
  // 100 bytes fit in the stdio buffer, so the background fwrite succeeds and
  // the failure surfaces only at Flush's fflush.
  std::FILE* f = std::fopen("/dev/full", "wb");
  ASSERT_NE(f, nullptr);
  {
    AsyncFileWriter writer(f);
    const std::vector<uint8_t> data(100, 0x5a);
    writer.Append(data.data(), data.size());
    writer.Flush();
    EXPECT_TRUE(writer.write_error());
  }
}

}  // namespace
}  // namespace genealog
