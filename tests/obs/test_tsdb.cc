/**
 * @file
 * Tests of the embedded time-series store: raw-ring retention,
 * tiered downsampling, tier selection by query step, cardinality-cap
 * eviction, NaN rejection, bounded memory under a long soak, query
 * error paths, and concurrent append/query (exercised under TSan).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>

#include "obs/metrics.hh"
#include "obs/tsdb.hh"

namespace
{

using namespace gpupm;

constexpr std::int64_t kSec = 1'000'000;

TEST(TsdbTest, AppendAndRawQuery)
{
    obs::Tsdb db;
    db.append("s", 1 * kSec, 1.0);
    db.append("s", 2 * kSec, 3.0);
    db.append("s", 2 * kSec + 1000, 5.0);

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 3 * kSec;
    q.step_us = kSec;
    const auto res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.tier, 0);
    ASSERT_EQ(res.points.size(), 2u);
    EXPECT_EQ(res.points[0].start_us, 1 * kSec);
    EXPECT_EQ(res.points[0].count, 1);
    EXPECT_DOUBLE_EQ(res.points[0].avg(), 1.0);
    // Both 2s-bucket points aggregate: min/max/sum/count.
    EXPECT_EQ(res.points[1].start_us, 2 * kSec);
    EXPECT_EQ(res.points[1].count, 2);
    EXPECT_DOUBLE_EQ(res.points[1].min, 3.0);
    EXPECT_DOUBLE_EQ(res.points[1].max, 5.0);
    EXPECT_DOUBLE_EQ(res.points[1].avg(), 4.0);
}

TEST(TsdbTest, TierSelectionFollowsStep)
{
    obs::Tsdb db;
    for (int i = 0; i < 300; ++i)
        db.append("s", i * kSec, static_cast<double>(i));

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 300 * kSec;

    q.step_us = kSec;
    EXPECT_EQ(db.query(q).tier, 0);
    q.step_us = 10 * kSec;
    EXPECT_EQ(db.query(q).tier, 1);
    q.step_us = 60 * kSec;
    EXPECT_EQ(db.query(q).tier, 2);
}

TEST(TsdbTest, DownsampledTiersOutliveTheRawRing)
{
    obs::TsdbOptions o;
    o.raw_capacity = 10; // raw history: last 10 points only
    obs::Tsdb db(o);
    for (int i = 0; i < 100; ++i)
        db.append("s", i * kSec, static_cast<double>(i));

    // Raw query over the whole range only sees the ring's tail...
    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 100 * kSec;
    q.step_us = kSec;
    auto res = db.query(q);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.points.size(), 10u);
    EXPECT_EQ(res.points.front().start_us, 90 * kSec);

    // ...but the 10 s tier still covers the evicted past.
    q.step_us = 10 * kSec;
    res = db.query(q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.tier, 1);
    ASSERT_EQ(res.points.size(), 10u);
    EXPECT_EQ(res.points.front().start_us, 0);
    EXPECT_EQ(res.points.front().count, 10);
    // Bucket [0,10s) holds values 0..9.
    EXPECT_DOUBLE_EQ(res.points.front().min, 0.0);
    EXPECT_DOUBLE_EQ(res.points.front().max, 9.0);
    EXPECT_DOUBLE_EQ(res.points.front().avg(), 4.5);
}

TEST(TsdbTest, TierCapacityIsBounded)
{
    obs::TsdbOptions o;
    o.tier_capacity = 4;
    obs::Tsdb db(o);
    // 20 distinct 10 s buckets; only the newest 4 survive in tier 1.
    for (int i = 0; i < 20; ++i)
        db.append("s", i * 10 * kSec, 1.0);

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 200 * kSec;
    q.step_us = 10 * kSec;
    const auto res = db.query(q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.points.size(), 4u);
    EXPECT_EQ(res.points.front().start_us, 160 * kSec);
}

TEST(TsdbTest, NonFiniteValuesAreDroppedAndCounted)
{
    obs::Tsdb db;
    db.append("s", kSec, std::numeric_limits<double>::quiet_NaN());
    db.append("s", 2 * kSec,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(db.droppedNotFinite(), 2u);
    EXPECT_EQ(db.pointsAppended(), 0u);
    EXPECT_EQ(db.seriesCount(), 0u);

    db.append("s", 3 * kSec, 1.0);
    EXPECT_EQ(db.pointsAppended(), 1u);
    EXPECT_EQ(db.seriesCount(), 1u);
}

TEST(TsdbTest, CardinalityCapEvictsOldestWrite)
{
    obs::TsdbOptions o;
    o.max_series = 4;
    o.stripes = 1; // single stripe: the cap is exact, LRU is global
    obs::Tsdb db(o);
    db.append("a", 1 * kSec, 1.0);
    db.append("b", 2 * kSec, 1.0);
    db.append("c", 3 * kSec, 1.0);
    db.append("d", 4 * kSec, 1.0);
    EXPECT_EQ(db.seriesCount(), 4u);
    EXPECT_EQ(db.evictions(), 0u);

    // "a" has the oldest last-write; a fifth series evicts it.
    db.append("e", 5 * kSec, 1.0);
    EXPECT_EQ(db.seriesCount(), 4u);
    EXPECT_EQ(db.evictions(), 1u);
    const auto names = db.seriesNames();
    EXPECT_EQ(names, (std::vector<std::string>{"b", "c", "d", "e"}));

    obs::TsQuery q;
    q.series = "a";
    q.start_us = 0;
    q.end_us = 10 * kSec;
    EXPECT_FALSE(db.query(q).ok);
}

TEST(TsdbTest, MemoryStaysBoundedUnderSoak)
{
    obs::TsdbOptions o;
    o.max_series = 16;
    o.stripes = 4;
    obs::Tsdb db(o);

    // Fixed accounting: the bound is a function of the caps alone.
    const std::size_t cap_bound =
            sizeof(obs::Tsdb) + o.stripes * 512 +
            o.max_series *
                    (o.raw_capacity * sizeof(obs::TsPoint) +
                     2 * o.tier_capacity * sizeof(obs::TsBucket) +
                     1024);

    std::size_t high_water = 0;
    for (int i = 0; i < 10'000; ++i) {
        // 20 metric names cycling: forces eviction churn on top of
        // ring wraparound.
        const std::string name =
                "gpupm_soak_series_" + std::to_string(i % 20);
        db.append(name, i * kSec / 10, std::sin(i * 0.01));
        high_water = std::max(high_water, db.memoryBytes());
    }
    EXPECT_LE(db.seriesCount(), o.max_series);
    EXPECT_GT(db.evictions(), 0u);
    EXPECT_LE(high_water, cap_bound)
            << "soak high-water " << high_water
            << " exceeded the configured bound " << cap_bound;
}

TEST(TsdbTest, QueryErrorPaths)
{
    obs::Tsdb db;
    db.append("s", kSec, 1.0);

    obs::TsQuery q;
    q.series = "missing";
    q.start_us = 0;
    q.end_us = kSec;
    EXPECT_FALSE(db.query(q).ok);

    q.series = "s";
    q.step_us = 0;
    EXPECT_FALSE(db.query(q).ok);

    q.step_us = kSec;
    q.start_us = 2 * kSec;
    q.end_us = kSec;
    EXPECT_FALSE(db.query(q).ok);

    // A hostile range/step pair must be rejected, not allocated.
    q.start_us = 0;
    q.end_us = 1'000'000'000 * kSec;
    q.step_us = 1;
    const auto res = db.query(q);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("too many buckets"), std::string::npos);
}

TEST(TsdbTest, ExtremeRangesNeitherOverflowNorHang)
{
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    obs::Tsdb db;
    db.append("s", kSec, 1.0);

    // The widest range at a 1 us step must be refused by its bucket
    // count, not wrapped into a small or negative one.
    obs::TsQuery q;
    q.series = "s";
    q.start_us = kMin;
    q.end_us = kMax;
    q.step_us = 1;
    auto res = db.query(q);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("too many buckets"), std::string::npos);

    // At a step of half the range it answers: three buckets, the
    // point in the middle one, which starts at kMin + kMax = -1.
    q.step_us = kMax;
    res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_EQ(res.points[0].start_us, -1);
    EXPECT_EQ(res.points[0].count, 1);

    // Windows pressed against either end of the type answer empty.
    q.start_us = kMax - 10;
    q.end_us = kMax;
    q.step_us = 1;
    res = db.query(q);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.points.empty());
    q.start_us = kMin;
    q.end_us = kMin + 10;
    res = db.query(q);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.points.empty());
}

TEST(TsdbTest, LatestTimestampTracksAppends)
{
    obs::Tsdb db;
    EXPECT_EQ(db.latestTimestamp(),
              std::numeric_limits<std::int64_t>::min());
    db.append("s", 5 * kSec, 1.0);
    db.append("t", 9 * kSec, 1.0);
    db.append("s", 7 * kSec, 1.0); // out of order: max is kept
    EXPECT_EQ(db.latestTimestamp(), 9 * kSec);
}

TEST(TsdbTest, LatePointsLandInRawButNotSealedBuckets)
{
    obs::Tsdb db;
    db.append("s", 100 * kSec, 1.0);
    db.append("s", 5 * kSec, 99.0); // bucket [0,10s) is sealed

    obs::TsQuery q;
    q.series = "s";
    q.start_us = 0;
    q.end_us = 200 * kSec;
    q.step_us = kSec; // raw
    auto res = db.query(q);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.points.size(), 2u); // raw ring accepted both

    q.step_us = 10 * kSec; // tier 1
    res = db.query(q);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.points.size(), 1u); // sealed bucket stayed sealed
    EXPECT_EQ(res.points[0].start_us, 100 * kSec);
}

TEST(TsdbTest, RecordRegistrySnapshotsEverySample)
{
    obs::Registry reg;
    reg.counter("demo_total", "d").inc(3.0);
    reg.gauge("demo_gauge", "x=\"1\"", "d").set(7.5);

    obs::Tsdb db;
    db.recordRegistry(reg, 4 * kSec);

    obs::TsQuery q;
    q.series = "demo_gauge{x=\"1\"}";
    q.start_us = 0;
    q.end_us = 10 * kSec;
    q.step_us = kSec;
    auto res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_DOUBLE_EQ(res.points[0].avg(), 7.5);

    q.series = "demo_total";
    res = db.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_DOUBLE_EQ(res.points[0].avg(), 3.0);
}

TEST(TsdbTest, JsonRenderingIsDeterministic)
{
    auto build = [] {
        obs::Tsdb db;
        for (int i = 0; i < 50; ++i)
            db.append("s", i * kSec, 0.125 * i);
        obs::TsQuery q;
        q.series = "s";
        q.start_us = 0;
        q.end_us = 50 * kSec;
        q.step_us = 5 * kSec;
        return db.query(q).toJson("s");
    };
    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(a.find("\"points\":[{"), std::string::npos);
}

TEST(TsdbTest, ConcurrentAppendAndQuery)
{
    obs::Tsdb db;
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&db, w] {
            const std::string own =
                    "writer_" + std::to_string(w);
            for (int i = 0; i < 2000; ++i) {
                db.append(own, i * 1000, static_cast<double>(i));
                db.append("shared", i * 1000 + w,
                          static_cast<double>(w));
            }
        });
    }
    std::thread reader([&db] {
        for (int i = 0; i < 200; ++i) {
            obs::TsQuery q;
            q.series = "shared";
            q.start_us = 0;
            q.end_us = 2'000'000;
            q.step_us = 100'000;
            (void)db.query(q);
            (void)db.seriesNames();
            (void)db.memoryBytes();
        }
    });
    for (auto &t : writers)
        t.join();
    reader.join();
    EXPECT_EQ(db.pointsAppended(), 4u * 2000u * 2u);
    EXPECT_EQ(db.seriesCount(), 5u);
}

} // namespace
