/**
 * @file
 * Unit tests for the composed memory system (texture L1 -> LLC -> DRAM).
 */

#include <gtest/gtest.h>

#include "mem/memsys.hh"

using namespace pargpu;

namespace
{

MemSysConfig
defaultConfig()
{
    return MemSysConfig{};
}

} // namespace

TEST(MemSysTest, TextureReadHierarchyLatencyOrdering)
{
    MemorySystem mem(defaultConfig());
    // Cold: miss everywhere (DRAM latency).
    Cycle cold = mem.read(0, 0x1000, 0, TrafficClass::Texture);
    // Warm in L1.
    Cycle warm = mem.read(0, 0x1000, 0, TrafficClass::Texture);
    EXPECT_LT(warm, cold);
    EXPECT_EQ(warm, mem.config().latencies.l1_hit);
}

TEST(MemSysTest, L2HitSlowerThanL1FasterThanDram)
{
    MemorySystem mem(defaultConfig());
    Cycle cold = mem.read(0, 0x2000, 0, TrafficClass::Texture);
    // Another cluster misses its own L1 but hits the shared LLC.
    Cycle l2 = mem.read(1, 0x2000, 0, TrafficClass::Texture);
    Cycle l1 = mem.read(1, 0x2000, 0, TrafficClass::Texture);
    EXPECT_LT(l2, cold);
    EXPECT_LT(l1, l2);
}

TEST(MemSysTest, NonTextureTrafficBypassesTextureL1)
{
    MemorySystem mem(defaultConfig());
    mem.read(0, 0x3000, 0, TrafficClass::Geometry);
    // The texture L1 saw nothing.
    EXPECT_EQ(mem.textureL1(0).accesses(), 0u);
    EXPECT_GT(mem.llc().accesses(), 0u);
}

TEST(MemSysTest, TrafficAccountedPerClass)
{
    MemorySystem mem(defaultConfig());
    mem.read(0, 0x10000, 0, TrafficClass::Texture);
    mem.read(0, 0x20000, 0, TrafficClass::Geometry);
    mem.write(0x30000, 512, 0, TrafficClass::ColorDepth);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Texture), 64u);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Geometry), 64u);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::ColorDepth), 512u);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Texture) +
                  mem.trafficBytes(TrafficClass::Geometry) +
                  mem.trafficBytes(TrafficClass::ColorDepth),
              64u + 64 + 512);
}

TEST(MemSysTest, L1HitGeneratesNoDramTraffic)
{
    MemorySystem mem(defaultConfig());
    mem.read(0, 0x5000, 0, TrafficClass::Texture);
    Bytes after_cold = mem.trafficBytes(TrafficClass::Texture);
    mem.read(0, 0x5000, 100, TrafficClass::Texture);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Texture), after_cold);
}

TEST(MemSysTest, PerClusterL1sAreIndependent)
{
    MemorySystem mem(defaultConfig());
    mem.read(0, 0x7000, 0, TrafficClass::Texture);
    EXPECT_EQ(mem.textureL1(0).misses(), 1u);
    EXPECT_EQ(mem.textureL1(1).misses(), 0u);
}

TEST(MemSysTest, ResetClearsCachesAndTraffic)
{
    MemorySystem mem(defaultConfig());
    mem.read(0, 0x9000, 0, TrafficClass::Texture);
    mem.reset();
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Texture) +
                  mem.trafficBytes(TrafficClass::Geometry) +
                  mem.trafficBytes(TrafficClass::ColorDepth),
              0u);
    // After reset the same address misses again (traffic reappears).
    mem.read(0, 0x9000, 0, TrafficClass::Texture);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Texture), 64u);
}

TEST(MemSysTest, ScaleFactorsGrowCaches)
{
    MemSysConfig cfg = defaultConfig();
    cfg.llc_scale = 4;
    cfg.tc_scale = 2;
    MemorySystem mem(cfg);
    EXPECT_EQ(mem.llc().config().size_bytes, 4u * 128 * 1024);
    EXPECT_EQ(mem.textureL1(0).config().size_bytes, 2u * 16 * 1024);
}

TEST(MemSysTest, RepeatedReadHitsL1AndReadsDramOnce)
{
    MemorySystem mem(defaultConfig());
    mem.read(0, 0xA000, 0, TrafficClass::Texture);
    mem.read(0, 0xA000, 0, TrafficClass::Texture);
    EXPECT_EQ(mem.textureL1(0).hits(), 1u);
    EXPECT_EQ(mem.textureL1(0).misses(), 1u);
    EXPECT_EQ(mem.dram().reads(), 1u);
    EXPECT_EQ(mem.trafficBytes(TrafficClass::Texture), 64u);
}
