#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>

#include "util/belief_table.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/crc64.hpp"
#include "util/csv.hpp"
#include "util/framed_file.hpp"
#include "util/logging.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace recoverd {
namespace {

// Rows of a BeliefTable store: 3 doubles each, appended in entry order.
struct TableRows {
  std::vector<double> rows;
  util::BeliefTable table;

  std::pair<std::size_t, bool> add(std::vector<double> row) {
    const auto got = table.find_or_insert(util::hash_belief_bits(row.data(), row.size()),
                                          row.data(), rows.data(), row.size());
    if (got.second) rows.insert(rows.end(), row.begin(), row.end());
    return got;
  }

  std::size_t find(const std::vector<double>& row) const {
    return table.find(util::hash_belief_bits(row.data(), row.size()), row.data(),
                      rows.data(), row.size());
  }
};

TEST(BeliefTable, NumbersRowsByFirstOccurrenceAndMatchesBitwise) {
  TableRows t;
  EXPECT_EQ(t.find({0.5, 0.5, 0.0}), util::BeliefTable::npos);
  EXPECT_EQ(t.add({0.5, 0.5, 0.0}), std::make_pair(std::size_t{0}, true));
  EXPECT_EQ(t.add({0.25, 0.75, 0.0}), std::make_pair(std::size_t{1}, true));
  EXPECT_EQ(t.add({0.5, 0.5, 0.0}), std::make_pair(std::size_t{0}, false));
  // -0.0 and 0.0, and two NaN payloads, are different keys.
  EXPECT_EQ(t.add({0.5, 0.5, -0.0}), std::make_pair(std::size_t{2}, true));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(t.add({nan, 0.0, 0.0}), std::make_pair(std::size_t{3}, true));
  EXPECT_EQ(t.add({-nan, 0.0, 0.0}), std::make_pair(std::size_t{4}, true));
  EXPECT_EQ(t.find({nan, 0.0, 0.0}), 3u);
  EXPECT_EQ(t.table.size(), 5u);
}

TEST(BeliefTable, GrowthAndClearKeepEveryEntryFindable) {
  TableRows t;
  for (int round = 0; round < 3; ++round) {
    t.table.clear(round == 2 ? 5000 : 0);
    t.rows.clear();
    for (std::size_t i = 0; i < 3000; ++i) {
      const double v = static_cast<double>(i) + 0.125 * round;
      ASSERT_EQ(t.add({v, 1.0 - v, 0.0}), std::make_pair(i, true));
    }
    for (std::size_t i = 0; i < 3000; ++i) {
      const double v = static_cast<double>(i) + 0.125 * round;
      ASSERT_EQ(t.find({v, 1.0 - v, 0.0}), i);
    }
    // The previous round's rows are gone.
    if (round > 0) {
      const double old = 0.125 * (round - 1);
      EXPECT_EQ(t.find({old, 1.0 - old, 0.0}), util::BeliefTable::npos);
    }
  }
}

TEST(BeliefTable, ManyClearsWrapTheEpochWithoutStaleHits) {
  TableRows t;
  for (std::uint32_t k = 0; k < 70000; ++k) {
    t.table.clear();
    t.rows.clear();
    const double v = static_cast<double>(k % 3);
    ASSERT_EQ(t.find({v, 0.0, 0.0}), util::BeliefTable::npos) << "clear " << k;
    ASSERT_EQ(t.add({v, 0.0, 0.0}), std::make_pair(std::size_t{0}, true));
  }
}

TEST(Check, ExpectsThrowsWithContext) {
  try {
    RD_EXPECTS(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
  }
}

TEST(Check, EnsuresThrowsInvariantError) {
  EXPECT_THROW(RD_ENSURES(false, "broken"), InvariantError);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table;
  table.set_header({"Algorithm", "Cost"});
  table.add_row({"Bounded", TextTable::num(114.16)});
  table.add_row({"Oracle", TextTable::num(84.4, 1)});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Algorithm"), std::string::npos);
  EXPECT_NE(out.find("114.16"), std::string::npos);
  EXPECT_NE(out.find("84.4"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TextTable, EnforcesArity) {
  TextTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionError);
}

TEST(CsvWriter, EscapesSpecialCells) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row(std::vector<std::string>{"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvWriter, NumericRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row(std::vector<double>{1.5, 2.25}, 2);
  EXPECT_EQ(os.str(), "1.50,2.25\n");
}

TEST(CliArgs, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--faults=500", "--seed=42", "--verbose",
                        "positional", "--rate=0.25", "--enabled=false"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("faults", 0), 500);
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("enabled", true));
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.25);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(CliArgs, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--faults=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("faults", 0), PreconditionError);
}

TEST(CliArgs, ValidatedCountsRejectZeroAndNegatives) {
  const char* argv[] = {"prog", "--jobs=0", "--sessions=-3", "--warmup=0",
                        "--deadline-ms=-1.5", "--memo-max-mb=16"};
  CliArgs args(6, argv);
  // get_count: >= 1. Zero and negatives used to slip through the size_t
  // cast (an empty fleet, an 18-exabyte memo cap); now they fail loudly
  // with the offending value in the message.
  try {
    args.get_count("jobs", 1);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("jobs"), std::string::npos);
    EXPECT_NE(what.find("0"), std::string::npos);
  }
  EXPECT_THROW(args.get_count("sessions", 1), PreconditionError);
  EXPECT_EQ(args.get_count("memo-max-mb", 64), 16u);
  EXPECT_EQ(args.get_count("absent", 7), 7u);
  // get_size: >= 0 — zero is meaningful, negatives are not.
  EXPECT_EQ(args.get_size("warmup", 5), 0u);
  EXPECT_THROW(args.get_size("sessions", 0), PreconditionError);
  // get_positive_double: > 0 when the flag is passed explicitly.
  EXPECT_THROW(args.get_positive_double("deadline-ms", 1.0), PreconditionError);
  EXPECT_DOUBLE_EQ(args.get_positive_double("absent", 2.5), 2.5);
  const char* zero[] = {"prog", "--deadline-ms=0"};
  CliArgs zero_args(2, zero);
  EXPECT_THROW(zero_args.get_positive_double("deadline-ms", 1.0),
               PreconditionError);
}

TEST(CliArgs, RequireKnownCatchesTypos) {
  const char* argv[] = {"prog", "--falts=10"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.require_known({"faults", "seed"}), PreconditionError);
  const char* ok[] = {"prog", "--faults=10"};
  CliArgs good(2, ok);
  EXPECT_NO_THROW(good.require_known({"faults", "seed"}));
}

TEST(Logging, ThresholdFilters) {
  const LogLevel prior = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // These must be cheap no-ops below threshold (no observable way to assert
  // stderr here; we assert the level round-trips and calls don't throw).
  EXPECT_NO_THROW(log_debug("dropped ", 1));
  EXPECT_NO_THROW(log_info("dropped"));
  set_log_level(prior);
}

TEST(Shutdown, ProgrammaticRequestLatchesUntilReset) {
  reset_shutdown_for_tests();
  EXPECT_FALSE(shutdown_requested());
  request_shutdown();
  EXPECT_TRUE(shutdown_requested());
  EXPECT_TRUE(shutdown_requested());  // latched, not consumed
  reset_shutdown_for_tests();
  EXPECT_FALSE(shutdown_requested());
}

TEST(Shutdown, FirstSignalSetsFlagInsteadOfKilling) {
  install_shutdown_handlers();
  reset_shutdown_for_tests();
  EXPECT_FALSE(shutdown_requested());
  // The first SIGTERM only sets the flag (the handler then restores the
  // default disposition so a second one can still kill a hung process —
  // which is why this test sends exactly one).
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(shutdown_requested());
  install_shutdown_handlers();  // re-arm for any later test in this binary
  reset_shutdown_for_tests();
}

TEST(Timer, MeasuresElapsedMonotonically) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1e-9;
  const double first = t.elapsed_seconds();
  for (int i = 0; i < 100000; ++i) sink = sink + 1e-9;
  const double second = t.elapsed_seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  t.reset();
  EXPECT_LT(t.elapsed_seconds(), second + 1.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

// CRC-64/XZ check value (the CRC of the ASCII digits "123456789") — pins
// the polynomial, reflection, init and final-XOR conventions, and with them
// the bound-artifact and fleet-checkpoint file formats.
TEST(Crc64, MatchesTheStandardCheckValue) {
  EXPECT_EQ(util::crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64, EmptyAndSingleByteInputs) {
  EXPECT_EQ(util::crc64("", 0), 0x0000000000000000ULL);
  // One zero byte must differ from empty input (length is encoded by the
  // shifting, not by an explicit field).
  const unsigned char zero = 0;
  EXPECT_NE(util::crc64(&zero, 1), util::crc64(&zero, 0));
}

// Every internal path — the byte/8-byte tails, the slice-by-16 table loop,
// and the carry-less-multiply folding kernel that takes over at >= 64 bytes
// — must agree with the bit-at-a-time polynomial definition at every
// length that straddles their boundaries.
TEST(Crc64, AllLengthsMatchTheBitwiseReference) {
  const std::uint64_t poly = 0xC96C5795D7870F42ULL;  // reflected CRC-64/XZ
  std::vector<unsigned char> buf(1024);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>((i * 2654435761u) >> 13);
  }
  auto reference = [&](std::size_t n) {
    std::uint64_t crc = ~0ULL;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= buf[i];
      for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
    }
    return ~crc;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{15}, std::size_t{16}, std::size_t{17},
                              std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{127}, std::size_t{128}, std::size_t{129},
                              std::size_t{255}, std::size_t{1024}}) {
    EXPECT_EQ(util::crc64(buf.data(), n), reference(n)) << "length " << n;
  }
}

// Unaligned start addresses (the mmap loader hands the CRC a pointer at
// file offset 8) must not change the result for the same bytes.
TEST(Crc64, UnalignedBasePointerIsExact) {
  std::vector<unsigned char> buf(512 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131u + 17u);
  }
  for (std::size_t shift = 0; shift < 8; ++shift) {
    std::vector<unsigned char> copy(buf.begin() + static_cast<std::ptrdiff_t>(shift),
                                    buf.begin() + static_cast<std::ptrdiff_t>(shift) + 512);
    EXPECT_EQ(util::crc64(buf.data() + shift, 512), util::crc64(copy.data(), 512))
        << "shift " << shift;
  }
}

// The incremental form continues a CRC across pieces: cutting a buffer
// anywhere, into pieces below and above the 64-byte folding threshold and
// of zero length, must give the one-shot value. The streaming file writer
// relies on this for every artifact and checkpoint it saves.
TEST(Crc64, EverySplitMatchesTheOneShotValue) {
  std::mt19937_64 rng(64);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<unsigned char> buf(rng() % 2048);
    for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
    const std::uint64_t one_shot = util::crc64(buf.data(), buf.size());
    // Short pieces (mostly table path) in odd trials, long ones (mostly
    // folding path) in even trials.
    const std::size_t max_piece = trial % 2 == 0 ? 600 : 70;
    std::uint64_t crc = 0;
    std::size_t at = 0;
    while (at < buf.size()) {
      const std::size_t piece = std::min<std::size_t>(rng() % (max_piece + 1), buf.size() - at);
      crc = util::crc64(buf.data() + at, piece, crc);
      at += piece;
    }
    EXPECT_EQ(crc, one_shot) << "trial " << trial << ", " << buf.size() << " bytes";
  }
  // The check value, one byte at a time and across the middle.
  const char* digits = "123456789";
  std::uint64_t crc = 0;
  for (std::size_t i = 0; i < 9; ++i) crc = util::crc64(digits + i, 1, crc);
  EXPECT_EQ(crc, 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(util::crc64(digits + 4, 5, util::crc64(digits, 4)), 0x995DC9BBDF1939FAULL);
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The frame: magic, then every byte written (small fields through the
// buffer, a large array straight through), then the CRC-64 of everything
// after the magic, which commit() also returns.
TEST(FramedFile, CommitWritesMagicBodyAndTheBodyCrc) {
  const std::string path = testing::TempDir() + "framed_commit.bin";
  std::vector<double> big(3000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0.5 * static_cast<double>(i);
  util::FramedFileWriter out(path, "test file", 0x1122334455667788ULL);
  out.u32(7);
  out.u8(1);
  out.pad8();
  out.raw(big.data(), big.size() * sizeof(double));
  out.f64(-2.5);
  const std::uint64_t crc = out.commit();

  const std::vector<unsigned char> bytes = file_bytes(path);
  ASSERT_EQ(bytes.size(), 8 + 8 + big.size() * sizeof(double) + 8 + 8);
  EXPECT_EQ(out.position(), bytes.size());
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), 8);
  EXPECT_EQ(magic, 0x1122334455667788ULL);
  EXPECT_EQ(std::memcmp(bytes.data() + 16, big.data(), big.size() * sizeof(double)), 0);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
  EXPECT_EQ(stored, crc);
  EXPECT_EQ(crc, util::crc64(bytes.data() + 8, bytes.size() - 16));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

// A writer that never commits (an emitter threw, say) removes its tmp file
// and leaves the file already at the path as it was.
TEST(FramedFile, UncommittedWriterLeavesThePreviousFile) {
  const std::string path = testing::TempDir() + "framed_abandoned.bin";
  {
    util::FramedFileWriter first(path, "test file", 1);
    first.u64(42);
    first.commit();
  }
  const std::vector<unsigned char> before = file_bytes(path);
  {
    util::FramedFileWriter abandoned(path, "test file", 2);
    std::vector<unsigned char> big(10000, 0xab);
    abandoned.raw(big.data(), big.size());
    EXPECT_TRUE(std::ifstream(path + ".tmp").good());
  }
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(file_bytes(path), before);
  std::remove(path.c_str());
}

// The reader serves back every field the writer wrote, lends an 8-aligned
// array in place for as long as keep_alive() is held (past the reader's own
// life), and returns the CRC commit() stored. Reads past the payload, an
// implausible count and a payload left half read are ModelErrors that name
// the format and the file.
TEST(FramedFile, ReaderServesWhatTheWriterWrote) {
  const std::string path = testing::TempDir() + "framed_read.bin";
  constexpr std::uint64_t kMagic = 0x1122334455667788ULL;
  const std::vector<std::uint32_t> small = {1, 2, 3};
  std::vector<std::uint64_t> words(700);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i * 0x9e3779b97f4a7c15ULL;
  const auto emit = [&](auto& sink) {
    sink.u8(9);
    sink.u32(7);
    sink.raw(small.data(), small.size() * 4);
    sink.pad8();
    sink.raw(words.data(), words.size() * 8);
    sink.f64(-2.5);
  };
  util::ByteCounter payload(16);
  emit(payload);
  util::FramedFileWriter out(path, "test file", kMagic);
  out.u64(payload.position() - 16);
  emit(out);
  const std::uint64_t crc = out.commit();

  std::shared_ptr<const void> keep;
  std::span<const std::uint64_t> borrowed;
  {
    util::FramedFileReader in(path, "test file", "write it again", kMagic, 16);
    EXPECT_EQ(in.check_frame(in.u64("length")), crc);
    EXPECT_EQ(in.u8("a"), 9u);
    EXPECT_EQ(in.u32("b"), 7u);
    EXPECT_EQ(in.array<std::uint32_t>(small.size(), "small"), small);
    in.pad8("padding");
    borrowed = in.in_place<std::uint64_t>(words.size(), "words");
    EXPECT_EQ(in.f64("c"), -2.5);
    in.expect_end();
    keep = in.keep_alive();
  }
  EXPECT_TRUE(std::equal(borrowed.begin(), borrowed.end(), words.begin(), words.end()));

  const auto error_of = [&](const std::function<void(util::FramedFileReader&)>& read) {
    util::FramedFileReader in(path, "test file", "write it again", kMagic, 16);
    in.check_frame(in.u64("length"));
    try {
      read(in);
    } catch (const ModelError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string prefix = "test file '" + path + "': ";
  const std::string past_end = error_of([](util::FramedFileReader& in) {
    (void)in.array<std::uint8_t>(5632, "everything");
    (void)in.u8("one more");
  });
  EXPECT_EQ(past_end.rfind(prefix + "payload ends inside one more", 0), 0u) << past_end;
  EXPECT_NE(past_end.find("write it again"), std::string::npos) << past_end;
  const std::string huge = error_of([](util::FramedFileReader& in) {
    in.need_array(std::uint64_t{1} << 62, 8, "huge");
  });
  EXPECT_EQ(huge.rfind(prefix + "implausible huge count", 0), 0u) << huge;
  const std::string half = error_of([](util::FramedFileReader& in) { in.expect_end(); });
  EXPECT_EQ(half.rfind(prefix + "trailing bytes", 0), 0u) << half;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace recoverd
