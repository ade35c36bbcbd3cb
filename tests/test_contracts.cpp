/**
 * @file
 * Contract tests: SIPRE_ASSERT-guarded invariants must abort loudly on
 * misuse (gem5 panic()-style), and configuration validation must
 * reject malformed setups.
 */
#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "util/circular_buffer.hpp"
#include "util/statistics.hpp"

namespace sipre
{
namespace
{

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, PopFromEmptyBufferPanics)
{
    CircularBuffer<int> buf(2);
    EXPECT_DEATH(buf.pop(), "empty CircularBuffer");
}

TEST(ContractDeathTest, PushIntoFullBufferPanics)
{
    CircularBuffer<int> buf(1);
    buf.push(1);
    EXPECT_DEATH(buf.push(2), "full CircularBuffer");
}

TEST(ContractDeathTest, OutOfRangeAtPanics)
{
    CircularBuffer<int> buf(4);
    buf.push(1);
    EXPECT_DEATH(buf.at(3), "out of range");
}

TEST(ContractDeathTest, BackendRejectsEmptyRob)
{
    BackendConfig config;
    config.rob_size = 0;
    const Trace trace;
    MemoryHierarchy memory{HierarchyConfig{}};
    DecodeQueue decode_queue(4);
    EXPECT_DEATH(Backend(config, trace, memory, decode_queue), "rob_size");
}

TEST(ContractDeathTest, HistogramRejectsZeroWidth)
{
    EXPECT_DEATH(Histogram(0, 4), "bucket width");
}

TEST(ContractDeathTest, GeomeanRejectsNonPositive)
{
    const double values[] = {1.0, -2.0};
    EXPECT_DEATH(geomean(values), "positive");
}

TEST(ContractDeathTest, CacheRejectsNonPowerOfTwoSets)
{
    CacheConfig config;
    config.size_bytes = 3 * 64; // 3 sets of 1 way
    config.ways = 1;
    Dram dram{DramConfig{}};
    EXPECT_DEATH(Cache(config, &dram), "power of 2");
}

TEST(ContractDeathTest, CacheEnqueueWhenFullPanics)
{
    CacheConfig config;
    config.size_bytes = 1024;
    config.ways = 1;
    config.queue_size = 1;
    Dram dram{DramConfig{}};
    Cache cache(config, &dram);
    MemRequest req;
    req.line_addr = 0x1000;
    cache.enqueue(req);
    EXPECT_DEATH(cache.enqueue(req), "full cache queue");
}

TEST(ContractDeathTest, FillWithoutMshrPanics)
{
    CacheConfig config;
    config.size_bytes = 1024;
    config.ways = 1;
    Dram dram{DramConfig{}};
    Cache cache(config, &dram);
    MemRequest fill;
    fill.line_addr = 0x2000;
    EXPECT_DEATH(cache.handleFill(fill), "matching MSHR");
}

} // namespace
} // namespace sipre
