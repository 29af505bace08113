/**
 * @file
 * Unit tests for RGBA color types and packing.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/color.hh"

using namespace pargpu;

TEST(Color4fTest, DefaultIsOpaqueBlack)
{
    Color4f c;
    EXPECT_FLOAT_EQ(c.r, 0.0f);
    EXPECT_FLOAT_EQ(c.g, 0.0f);
    EXPECT_FLOAT_EQ(c.b, 0.0f);
    EXPECT_FLOAT_EQ(c.a, 1.0f);
}

TEST(Color4fTest, ClampedBoundsChannels)
{
    Color4f c{-0.5f, 1.5f, 0.5f, 2.0f};
    Color4f k = c.clamped();
    EXPECT_FLOAT_EQ(k.r, 0.0f);
    EXPECT_FLOAT_EQ(k.g, 1.0f);
    EXPECT_FLOAT_EQ(k.b, 0.5f);
    EXPECT_FLOAT_EQ(k.a, 1.0f);
}

TEST(Color4fTest, LumaOfPrimaries)
{
    EXPECT_NEAR(Color4f(1, 0, 0).luma(), 0.299f, 1e-6f);
    EXPECT_NEAR(Color4f(0, 1, 0).luma(), 0.587f, 1e-6f);
    EXPECT_NEAR(Color4f(0, 0, 1).luma(), 0.114f, 1e-6f);
    EXPECT_NEAR(Color4f(1, 1, 1).luma(), 1.0f, 1e-6f);
}

TEST(PackRGBA8Test, RoundTripExactAtQuantizationPoints)
{
    for (int v = 0; v <= 255; ++v) {
        Color4f c{v / 255.0f, v / 255.0f, v / 255.0f, v / 255.0f};
        RGBA8 p = packRGBA8(c);
        EXPECT_EQ(p.r, v);
        Color4f u = unpackRGBA8(p);
        EXPECT_NEAR(u.r, c.r, 1e-6f);
        EXPECT_EQ(packRGBA8(u).a, v);
    }
}

TEST(PackRGBA8Test, ClampsOutOfRange)
{
    RGBA8 lo = packRGBA8({-1.0f, -0.1f, 0.0f, -5.0f});
    EXPECT_EQ(lo.r, 0);
    EXPECT_EQ(lo.g, 0);
    EXPECT_EQ(lo.a, 0);
    RGBA8 hi = packRGBA8({2.0f, 1.1f, 1.0f, 9.0f});
    EXPECT_EQ(hi.r, 255);
    EXPECT_EQ(hi.g, 255);
    EXPECT_EQ(hi.b, 255);
    EXPECT_EQ(hi.a, 255);
}

TEST(PackRGBA8Test, NonFiniteAndHugeInputsClamp)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const RGBA8 n = packRGBA8({nan, -nan, nan, nan});
    EXPECT_EQ(n.r, 0);
    EXPECT_EQ(n.g, 0);
    EXPECT_EQ(n.b, 0);
    EXPECT_EQ(n.a, 0);
    const RGBA8 big = packRGBA8({inf, -inf, 1e30f, -1e30f});
    EXPECT_EQ(big.r, 255);
    EXPECT_EQ(big.g, 0);
    EXPECT_EQ(big.b, 255);
    EXPECT_EQ(big.a, 0);
}

TEST(PackRGBA8Test, RoundsToNearest)
{
    // 0.5/255 should round down to 0; 0.6/255 rounds to 1.
    EXPECT_EQ(packRGBA8({0.4f / 255.0f, 0, 0}).r, 0);
    EXPECT_EQ(packRGBA8({0.6f / 255.0f, 0, 0}).r, 1);
}

TEST(ColorLerpTest, EndpointsAndMidpoint)
{
    Color4f a{0, 0, 0, 0}, b{1, 1, 1, 1};
    Color4f m = lerp(a, b, 0.5f);
    EXPECT_FLOAT_EQ(m.r, 0.5f);
    EXPECT_FLOAT_EQ(lerp(a, b, 0.0f).r, 0.0f);
    EXPECT_FLOAT_EQ(lerp(a, b, 1.0f).r, 1.0f);
}
