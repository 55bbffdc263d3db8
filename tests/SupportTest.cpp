//===- tests/SupportTest.cpp - Support-library unit tests -----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/BitOps.h"
#include "support/ByteBuffer.h"
#include "support/Error.h"
#include "support/FileIO.h"
#include "support/RegSet.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace eel;

TEST(BitOps, ExtractInsertRoundTrip) {
  uint32_t W = 0xDEADBEEF;
  EXPECT_EQ(extractBits(W, 0, 31), W);
  EXPECT_EQ(extractBits(W, 0, 3), 0xFu);
  EXPECT_EQ(extractBits(W, 28, 31), 0xDu);
  EXPECT_EQ(extractBits(W, 8, 15), 0xBEu);
  uint32_t V = insertBits(W, 8, 15, 0x42);
  EXPECT_EQ(extractBits(V, 8, 15), 0x42u);
  EXPECT_EQ(extractBits(V, 0, 7), extractBits(W, 0, 7));
  EXPECT_EQ(extractBits(V, 16, 31), extractBits(W, 16, 31));
}

TEST(BitOps, InsertMasksExcessBits) {
  EXPECT_EQ(insertBits(0, 0, 3, 0xFF), 0xFu);
}

TEST(BitOps, SignExtend) {
  EXPECT_EQ(signExtend(0xFFF, 12), -1);
  EXPECT_EQ(signExtend(0x7FF, 12), 0x7FF);
  EXPECT_EQ(signExtend(0x800, 12), -2048);
  EXPECT_EQ(signExtend(0, 1), 0);
  EXPECT_EQ(signExtend(1, 1), -1);
  EXPECT_EQ(signExtend(0x80000000u, 32), INT32_MIN);
}

TEST(BitOps, FitsSignedUnsigned) {
  EXPECT_TRUE(fitsSigned(-4096, 13));
  EXPECT_TRUE(fitsSigned(4095, 13));
  EXPECT_FALSE(fitsSigned(4096, 13));
  EXPECT_FALSE(fitsSigned(-4097, 13));
  EXPECT_TRUE(fitsUnsigned(8191, 13));
  EXPECT_FALSE(fitsUnsigned(8192, 13));
}

TEST(RegSet, BasicOperations) {
  RegSet S{1, 5, 31};
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(5));
  EXPECT_FALSE(S.contains(4));
  S.remove(5);
  EXPECT_FALSE(S.contains(5));
  S.insert(RegIdCC);
  EXPECT_TRUE(S.contains(RegIdCC));
  EXPECT_EQ(S.first(), 1u);
}

TEST(RegSet, SetAlgebra) {
  RegSet A{1, 2, 3};
  RegSet B{3, 4};
  EXPECT_EQ((A | B).size(), 4u);
  EXPECT_EQ((A & B).size(), 1u);
  EXPECT_TRUE((A & B).contains(3));
  EXPECT_EQ((A - B), (RegSet{1, 2}));
}

TEST(RegSet, IterationInOrder) {
  RegSet S{9, 2, 17};
  std::vector<unsigned> Ids;
  for (unsigned Id : S)
    Ids.push_back(Id);
  EXPECT_EQ(Ids, (std::vector<unsigned>{2, 9, 17}));
}

TEST(Expected, ValueAndError) {
  Expected<int> Good(42);
  ASSERT_TRUE(Good.hasValue());
  EXPECT_EQ(Good.value(), 42);
  Expected<int> Bad{Error("something broke")};
  ASSERT_TRUE(Bad.hasError());
  EXPECT_EQ(Bad.error().message(), "something broke");
  EXPECT_EQ(Bad.error().code(), ErrorCode::Unspecified);
  EXPECT_FALSE(Bad.error().hasOffset());
}

TEST(ErrorTaxonomy, StructuredContext) {
  Error E = Error(ErrorCode::SegmentOverrun, "segment overruns file")
                .atOffset(0x21)
                .inField("segment[1].nbytes")
                .inFile("a.sxf");
  EXPECT_EQ(E.code(), ErrorCode::SegmentOverrun);
  ASSERT_TRUE(E.hasOffset());
  EXPECT_EQ(E.offset(), 0x21u);
  EXPECT_EQ(E.field(), "segment[1].nbytes");
  EXPECT_EQ(E.file(), "a.sxf");
  // message() stays the bare message; describe() renders everything.
  EXPECT_EQ(E.message(), "segment overruns file");
  EXPECT_EQ(E.describe(),
            "a.sxf: offset 0x21: segment[1].nbytes: segment overruns file "
            "[segment_overrun]");
  // Every code has a distinct stable name.
  EXPECT_STREQ(errorCodeName(ErrorCode::BadMagic), "bad_magic");
  EXPECT_STREQ(errorCodeName(ErrorCode::TrailingBytes), "trailing_bytes");
}

// The reader's bounds checks are in subtraction form; hostile lengths near
// the top of the integer range must fail cleanly rather than wrap the
// additive check and read out of bounds.
TEST(ByteBuffer, HostileLengthsFailCleanly) {
  std::vector<uint8_t> Small = {1, 2, 3, 4};
  {
    ByteReader R(Small);
    uint8_t Out[4];
    // volatile keeps the compiler from constant-folding the hostile count
    // into the inlined memcpy and warning about the (rejected) copy size.
    volatile size_t Hostile = SIZE_MAX - 2;
    EXPECT_FALSE(R.readBytes(Out, Hostile)); // Pos + Count wraps
    EXPECT_TRUE(R.failed());
  }
  {
    // A string whose length claims nearly 4 GB in a 12-byte buffer.
    ByteWriter W;
    W.writeU32(0xFFFFFFFF);
    W.writeU32(0);
    W.writeU32(0);
    ByteReader R(W.bytes());
    EXPECT_EQ(R.readString(), "");
    EXPECT_TRUE(R.failed());
  }
  {
    ByteReader R(Small);
    EXPECT_EQ(R.pos(), 0u);
    R.readU16();
    EXPECT_EQ(R.pos(), 2u);
    EXPECT_EQ(R.remaining(), 2u);
  }
}

TEST(ByteBuffer, RoundTrip) {
  ByteWriter W;
  W.writeU8(0xAB);
  W.writeU16(0x1234);
  W.writeU32(0xDEADBEEF);
  W.writeString("hello");
  ByteReader R(W.bytes());
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU16(), 0x1234);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readString(), "hello");
  EXPECT_FALSE(R.failed());
  R.readU32(); // past the end
  EXPECT_TRUE(R.failed());
}

TEST(ByteBuffer, PatchU32) {
  ByteWriter W;
  W.writeU32(0);
  W.writeU8(7);
  W.patchU32(0, 0xCAFEBABE);
  ByteReader R(W.bytes());
  EXPECT_EQ(R.readU32(), 0xCAFEBABEu);
}

TEST(Rng, DeterministicAndBounded) {
  Rng A(12345), B(12345);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = C.below(17);
    EXPECT_LT(V, 17u);
    int64_t R = C.range(-5, 5);
    EXPECT_GE(R, -5);
    EXPECT_LE(R, 5);
  }
}

TEST(CountCodeLines, SkipsCommentsAndBlanks) {
  std::string Text = "// comment\n"
                     "\n"
                     "int x;\n"
                     "  ! asm comment\n"
                     "  -- desc comment\n"
                     "# hash comment\n"
                     "real line\n";
  EXPECT_EQ(countCodeLines(Text), 2u);
}

TEST(Stats, RegistryCounts) {
  StatRegistry::instance().resetAll();
  bumpStat("test.counter");
  bumpStat("test.counter", 4);
  EXPECT_EQ(StatRegistry::instance().read("test.counter"), 5u);
  EXPECT_EQ(StatRegistry::instance().read("test.missing"), 0u);
  StatRegistry::instance().resetAll();
  EXPECT_EQ(StatRegistry::instance().read("test.counter"), 0u);
}

TEST(FileIO, RoundTrip) {
  std::string Path = testing::TempDir() + "/eel_fileio_test.bin";
  std::vector<uint8_t> Bytes = {1, 2, 3, 0, 255};
  ASSERT_TRUE(writeFileBytes(Path, Bytes).hasValue());
  Expected<std::vector<uint8_t>> Read = readFileBytes(Path);
  ASSERT_TRUE(Read.hasValue());
  EXPECT_EQ(Read.value(), Bytes);
  EXPECT_TRUE(readFileBytes(Path + ".missing").hasError());
}
