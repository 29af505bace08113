/**
 * @file
 * Unit tests for the stats registry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"

using namespace pargpu;

namespace
{

/** Serialized summary of histogram @p name. */
Json
summary(const StatRegistry &s, const std::string &name)
{
    return s.toJson()["histograms"][name];
}

} // namespace

TEST(StatRegistryTest, IncrementAccumulates)
{
    StatRegistry s;
    s.inc("a", 1);
    s.inc("a", 5);
    EXPECT_EQ(s.counters.at("a"), 6u);
}

TEST(StatRegistryTest, SetOverwritesScalar)
{
    StatRegistry s;
    s.set("x", 3.25);
    EXPECT_DOUBLE_EQ(s.scalars.at("x"), 3.25);
    s.set("x", -1.0);
    EXPECT_DOUBLE_EQ(s.scalars.at("x"), -1.0);
}

TEST(StatRegistryTest, SummaryOfKnownSamples)
{
    StatRegistry s;
    for (int v = 100; v >= 1; --v)
        s.observe("h", static_cast<double>(v));
    const Json h = summary(s, "h");
    EXPECT_EQ(h["count"].number(), 100.0);
    EXPECT_DOUBLE_EQ(h["sum"].number(), 5050.0);
    EXPECT_DOUBLE_EQ(h["min"].number(), 1.0);
    EXPECT_DOUBLE_EQ(h["max"].number(), 100.0);
    EXPECT_DOUBLE_EQ(h["p50"].number(), 50.0); // Nearest-rank over 1..100.
    EXPECT_DOUBLE_EQ(h["p95"].number(), 95.0);
}

TEST(StatRegistryTest, EmptySummaryIsAllZero)
{
    StatRegistry s;
    s.histograms["h"];
    const Json h = summary(s, "h");
    for (const char *key : {"count", "sum", "min", "max", "p50", "p95"})
        EXPECT_EQ(h[key].number(), 0.0) << key;
}

TEST(StatRegistryTest, SingleSampleIsItsOwnQuantiles)
{
    StatRegistry s;
    s.observe("h", 7.5);
    const Json h = summary(s, "h");
    EXPECT_EQ(h["count"].number(), 1.0);
    EXPECT_DOUBLE_EQ(h["min"].number(), 7.5);
    EXPECT_DOUBLE_EQ(h["max"].number(), 7.5);
    EXPECT_DOUBLE_EQ(h["p50"].number(), 7.5);
    EXPECT_DOUBLE_EQ(h["p95"].number(), 7.5);
}

TEST(StatRegistryTest, QuantilesCoverTheRetainedPrefix)
{
    // 2^16 samples 1..2^16, then one more: count, sum, min and max take
    // it in; p50 and p95 are those of the first 2^16 alone. Over all
    // 2^16 + 1 samples, "high"'s quantiles would be one rank higher.
    constexpr std::size_t n = StatRegistry::kMaxRetained;
    static_assert(n == 1 << 16);
    StatRegistry s;
    for (std::size_t i = 1; i <= n; ++i) {
        s.observe("high", static_cast<double>(i));
        s.observe("low", static_cast<double>(i));
    }
    s.observe("high", 1e9);
    s.observe("low", -1.0);

    const double prefix_sum = static_cast<double>(n * (n + 1) / 2);
    const Json high = summary(s, "high");
    EXPECT_EQ(high["count"].number(), static_cast<double>(n + 1));
    EXPECT_DOUBLE_EQ(high["sum"].number(), prefix_sum + 1e9);
    EXPECT_DOUBLE_EQ(high["min"].number(), 1.0);
    EXPECT_DOUBLE_EQ(high["max"].number(), 1e9);
    EXPECT_DOUBLE_EQ(high["p50"].number(), 32768.0);
    EXPECT_DOUBLE_EQ(high["p95"].number(), 62260.0);

    const Json low = summary(s, "low");
    EXPECT_EQ(low["count"].number(), static_cast<double>(n + 1));
    EXPECT_DOUBLE_EQ(low["sum"].number(), prefix_sum - 1.0);
    EXPECT_DOUBLE_EQ(low["min"].number(), -1.0);
    EXPECT_DOUBLE_EQ(low["max"].number(), static_cast<double>(n));
}

TEST(StatRegistryTest, JsonLayout)
{
    StatRegistry s;
    s.inc("mem.dram.reads", 42);
    s.inc("a.first", 1);
    s.set("mem.l1.hit_rate", 0.75);
    s.observe("frame.cycles", 200.0);
    s.observe("frame.cycles", 100.0);
    EXPECT_EQ(s.toJson().dump(),
              "{\"counters\":{\"a.first\":1,\"mem.dram.reads\":42},"
              "\"histograms\":{\"frame.cycles\":{\"count\":2,\"max\":200,"
              "\"min\":100,\"p50\":100,\"p95\":200,\"sum\":300}},"
              "\"scalars\":{\"mem.l1.hit_rate\":0.75}}");
}
