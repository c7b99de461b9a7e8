#include "core/io.hpp"

#include "campaign/shard_io.hpp"
#include "core/report.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace core = relperf::core;

namespace {

/// Writes `content` to a fresh temp file and returns its path.
std::string write_temp(const std::string& name, const std::string& content) {
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
}

} // namespace

TEST(MeasurementsCsv, ParsesSimpleContent) {
    const std::string content =
        "algorithm,measurement_index,seconds\n"
        "algDD,0,1.5\n"
        "algDD,1,1.6\n"
        "algAD,0,0.9\n";
    const core::MeasurementSet set = core::parse_measurements_csv(content);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.name(0), "algDD");
    EXPECT_EQ(set.name(1), "algAD");
    ASSERT_EQ(set.samples(0).size(), 2u);
    EXPECT_DOUBLE_EQ(set.samples(0)[0], 1.5);
    EXPECT_DOUBLE_EQ(set.samples(0)[1], 1.6);
    EXPECT_DOUBLE_EQ(set.samples(1)[0], 0.9);
}

TEST(MeasurementsCsv, RoundTripsThroughWriter) {
    core::MeasurementSet original;
    original.add("algDDA", {0.0406, 0.0411, 0.0399});
    original.add("algDDD", {0.0442, 0.0438});

    const std::string path = testing::TempDir() + "relperf_io_roundtrip.csv";
    core::write_measurements_csv(original, path);
    const core::MeasurementSet loaded = core::read_measurements_csv(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded.name(i), original.name(i));
        ASSERT_EQ(loaded.samples(i).size(), original.samples(i).size());
        for (std::size_t k = 0; k < original.samples(i).size(); ++k) {
            EXPECT_DOUBLE_EQ(loaded.samples(i)[k], original.samples(i)[k]);
        }
    }
}

TEST(MeasurementsCsv, HandlesQuotedNames) {
    const std::string content =
        "algorithm,measurement_index,seconds\n"
        "\"alg,with,commas\",0,1.0\n"
        "\"say \"\"hi\"\"\",0,2.0\n";
    const core::MeasurementSet set = core::parse_measurements_csv(content);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.name(0), "alg,with,commas");
    EXPECT_EQ(set.name(1), "say \"hi\"");
}

TEST(MeasurementsCsv, SkipsBlankLines) {
    const std::string content =
        "algorithm,measurement_index,seconds\n"
        "a,0,1.0\n"
        "\n"
        "a,1,2.0\n";
    const core::MeasurementSet set = core::parse_measurements_csv(content);
    EXPECT_EQ(set.samples(0).size(), 2u);
}

TEST(MeasurementsCsv, RejectsMalformedInput) {
    EXPECT_THROW((void)core::parse_measurements_csv(""), relperf::Error);
    EXPECT_THROW((void)core::parse_measurements_csv("wrong,header,here\n"),
                 relperf::Error);
    EXPECT_THROW((void)core::parse_measurements_csv(
                     "algorithm,measurement_index,seconds\nonly-two,fields\n"),
                 relperf::Error);
    EXPECT_THROW((void)core::parse_measurements_csv(
                     "algorithm,measurement_index,seconds\na,0,not-a-number\n"),
                 relperf::Error);
}

TEST(MeasurementsCsv, MissingFileThrows) {
    EXPECT_THROW((void)core::read_measurements_csv("/nonexistent/file.csv"),
                 relperf::Error);
}

TEST(MeasurementsCsv, ToleratesCrlfBomCommentsAndTrailingBlanks) {
    const std::string content =
        "\xEF\xBB\xBF# produced by a campaign shard\r\n"
        "algorithm,measurement_index,seconds\r\n"
        "algDD,0,1.5\r\n"
        "# mid-file comment\r\n"
        "algDD,1,1.6\r\n"
        "\r\n"
        "\r\n";
    const core::MeasurementSet set = core::parse_measurements_csv(content);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set.name(0), "algDD");
    ASSERT_EQ(set.samples(0).size(), 2u);
    EXPECT_DOUBLE_EQ(set.samples(0)[1], 1.6);
}

TEST(MeasurementsCsv, ErrorsNameTheSourceAndLineNumber) {
    const auto expect_message = [](const std::string& content,
                                   const std::string& fragment) {
        try {
            (void)core::parse_measurements_csv(content, "shard_3.csv");
            FAIL() << "expected an error for: " << content;
        } catch (const relperf::Error& e) {
            EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
                << "message was: " << e.what();
        }
    };
    expect_message("algorithm,measurement_index,seconds\na,0,bad\n",
                   "shard_3.csv:2: bad seconds value 'bad'");
    expect_message("algorithm,measurement_index,seconds\n# c\n\nx,1\n",
                   "shard_3.csv:4: row has 2 fields");
    expect_message("wrong,header\n", "shard_3.csv:1:");
    expect_message("algorithm,measurement_index,seconds\n,0,1.0\n",
                   "shard_3.csv:2: empty algorithm name");
    expect_message("algorithm,measurement_index,seconds\na,x,1.0\n",
                   "shard_3.csv:2: measurement_index: expected a "
                   "non-negative integer, got 'x'");
    // The same index under another algorithm is fine; a repeat of the pair
    // is not.
    expect_message("algorithm,measurement_index,seconds\na,0,1.0\nb,0,2.0\n"
                   "# c\na,0,1.5\n",
                   "shard_3.csv:5: duplicate measurement_index 0 for "
                   "algorithm 'a'");
}

TEST(MeasurementsCsv, ZeroPaddedIndicesAreDecimal) {
    // Another tool may pad its indices: 07, 08 and 009 are three distinct
    // samples, and 010 is index 10, so a later 10 repeats it.
    const core::MeasurementSet set = core::parse_measurements_csv(
        "algorithm,measurement_index,seconds\n"
        "a,07,1.0\n"
        "a,08,2.0\n"
        "a,009,3.0\n");
    ASSERT_EQ(set.size(), 1u);
    const auto samples = set.samples(0);
    EXPECT_EQ(std::vector<double>(samples.begin(), samples.end()),
              (std::vector<double>{1.0, 2.0, 3.0}));
    try {
        (void)core::parse_measurements_csv(
            "algorithm,measurement_index,seconds\na,010,1.0\na,10,2.0\n",
            "padded.csv");
        FAIL() << "expected a duplicate-index error";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "padded.csv:3: duplicate measurement_index 10 for "
                      "algorithm 'a'"),
                  std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(MeasurementsCsv, FileAndStringEntryPointsShareOneParser) {
    // Both entry points stream through the same parser core; the awkward
    // cases (BOM, CRLF, comments, quoting, trailing blanks) must come out
    // identical whether parsed from a string or streamed from a file.
    const std::string content =
        "\xEF\xBB\xBF# produced by a campaign shard\r\n"
        "algorithm,measurement_index,seconds\r\n"
        "\"alg,comma\",0,1.5\r\n"
        "algDD,0,0.25\r\n"
        "# mid-file comment\r\n"
        "algDD,1,0.3125\r\n"
        "\r\n";
    const std::string path = write_temp("relperf_io_parity.csv", content);
    const core::MeasurementSet from_string =
        core::parse_measurements_csv(content, path);
    const core::MeasurementSet from_file = core::read_measurements_csv(path);
    std::remove(path.c_str());

    ASSERT_EQ(from_file.size(), from_string.size());
    for (std::size_t i = 0; i < from_string.size(); ++i) {
        EXPECT_EQ(from_file.name(i), from_string.name(i));
        ASSERT_EQ(from_file.samples(i).size(), from_string.samples(i).size());
        for (std::size_t k = 0; k < from_string.samples(i).size(); ++k) {
            EXPECT_EQ(from_file.samples(i)[k], from_string.samples(i)[k]);
        }
    }
}

TEST(MeasurementsCsv, FileAndStringEntryPointsAgreeOnErrors) {
    const std::string bad =
        "algorithm,measurement_index,seconds\n"
        "algDD,0,1.0\n"
        "algDD,1,not-a-number\n";
    const std::string path = write_temp("relperf_io_parity_bad.csv", bad);
    std::string string_error;
    std::string file_error;
    try {
        (void)core::parse_measurements_csv(bad, path);
    } catch (const relperf::Error& e) {
        string_error = e.what();
    }
    try {
        (void)core::read_measurements_csv(path);
    } catch (const relperf::Error& e) {
        file_error = e.what();
    }
    std::remove(path.c_str());
    ASSERT_FALSE(string_error.empty());
    EXPECT_EQ(file_error, string_error);
    EXPECT_NE(string_error.find(":3: bad seconds value"), std::string::npos)
        << string_error;
}

TEST(MeasurementsCsv, HeaderOnlyFilesAreAnError) {
    EXPECT_THROW((void)core::parse_measurements_csv(
                     "algorithm,measurement_index,seconds\n"),
                 relperf::Error);
}

TEST(MeasurementsCsv, WriterUsesRoundTripPrecision) {
    core::MeasurementSet original;
    original.add("alg", {1.0 / 3.0, 0.1, 1e-9 + 1e-17});
    const std::string path = testing::TempDir() + "relperf_io_exact.csv";
    core::write_measurements_csv(original, path);
    const core::MeasurementSet loaded = core::read_measurements_csv(path);
    std::remove(path.c_str());
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(loaded.samples(0)[k], original.samples(0)[k]) << k;
    }
}

TEST(MeasurementsCsv, RejectsNonFiniteSecondsValues) {
    for (const char* bad : {"1e999", "-1e999", "inf", "nan"}) {
        const std::string content =
            std::string("algorithm,measurement_index,seconds\na,0,") + bad +
            "\n";
        EXPECT_THROW((void)core::parse_measurements_csv(content),
                     relperf::Error)
            << bad;
    }
}

TEST(MeasurementsCsv, HeaderChecksEveryColumn) {
    // All three column names are the contract, the middle one included.
    for (const char* header : {"algorithm,foo,seconds",
                               "algorithm,,seconds",
                               "algorithm,seconds,measurement_index"}) {
        const std::string content = std::string(header) + "\na,0,1.0\n";
        try {
            (void)core::parse_measurements_csv(content, "m.csv");
            FAIL() << "accepted header " << header;
        } catch (const relperf::Error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "m.csv:1: expected header "
                          "'algorithm,measurement_index,seconds'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(MeasurementsCsv, NegativeSecondsNameTheFileAndLine) {
    // Caught by the parser, with the file and line, not later by
    // MeasurementSet's own check (which can name neither).
    const std::string content =
        "algorithm,measurement_index,seconds\na,0,1.0\n# c\na,1,-0.5\n";
    try {
        (void)core::parse_measurements_csv(content, "m.csv");
        FAIL() << "accepted a negative seconds value";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "m.csv:4: negative seconds value '-0.5'"),
                  std::string::npos)
            << e.what();
    }
    // Zero (and negative zero) are valid durations.
    const core::MeasurementSet set = core::parse_measurements_csv(
        "algorithm,measurement_index,seconds\na,0,0\na,1,-0.0\n");
    EXPECT_EQ(set.samples(0).size(), 2u);
}

TEST(MeasurementsCsv, ShardFilesReportBothContractErrorsByLine) {
    // read_shard_csv hands the rows after its manifest to the same parser,
    // so its errors carry the shard file's own line numbers.
    const std::string manifest =
        "# relperf-shard v1\n# spec_hash = 00000000000000aa\n"
        "# shard_index = 0\n# shard_count = 1\n";
    const std::string bad_header =
        write_temp("io_bad_header_shard.csv",
                   manifest + "algorithm,foo,seconds\na,0,1.0\n");
    const std::string negative = write_temp(
        "io_negative_shard.csv",
        manifest + "algorithm,measurement_index,seconds\na,0,1.0\na,1,-2\n");
    const auto expect_message = [](const std::string& path,
                                   const std::string& fragment) {
        try {
            (void)relperf::campaign::read_shard_csv(path);
            FAIL() << "accepted " << path;
        } catch (const relperf::Error& e) {
            EXPECT_NE(std::string(e.what()).find(path + fragment),
                      std::string::npos)
                << e.what();
        }
    };
    expect_message(bad_header, ":5: expected header");
    expect_message(negative, ":7: negative seconds value '-2'");
    std::remove(bad_header.c_str());
    std::remove(negative.c_str());
}
