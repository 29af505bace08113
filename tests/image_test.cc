/**
 * @file
 * Unit tests for the Image class and PPM I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/image.hh"

using namespace pargpu;

TEST(ImageTest, ConstructionFillsWithColor)
{
    Image img(4, 3, Color4f{0.5f, 0.25f, 0.75f, 1.0f});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_FALSE(img.empty());
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 4; ++x) {
            EXPECT_FLOAT_EQ(img.at(x, y).r, 0.5f);
            EXPECT_FLOAT_EQ(img.at(x, y).g, 0.25f);
        }
    }
}

TEST(ImageTest, DefaultImageIsEmpty)
{
    Image img;
    EXPECT_TRUE(img.empty());
    EXPECT_EQ(img.width(), 0);
}

TEST(ImageTest, PixelWritesStick)
{
    Image img(2, 2);
    img.at(1, 0) = Color4f{1, 0, 0, 1};
    EXPECT_FLOAT_EQ(img.at(1, 0).r, 1.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0).r, 0.0f);
}

TEST(ImageTest, PpmRoundTrip)
{
    Image img(8, 5);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 8; ++x)
            img.at(x, y) = Color4f{x / 8.0f, y / 5.0f, 0.5f, 1.0f};

    const std::string path = "image_test_roundtrip.ppm";
    ASSERT_TRUE(img.writePPM(path));
    Image back = Image::readPPM(path);
    std::remove(path.c_str());

    ASSERT_FALSE(back.empty());
    ASSERT_EQ(back.width(), 8);
    ASSERT_EQ(back.height(), 5);
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 8; ++x) {
            // 8-bit quantization error bound.
            EXPECT_NEAR(back.at(x, y).r, img.at(x, y).r, 1.0f / 255.0f);
            EXPECT_NEAR(back.at(x, y).g, img.at(x, y).g, 1.0f / 255.0f);
            EXPECT_NEAR(back.at(x, y).b, img.at(x, y).b, 1.0f / 255.0f);
        }
    }
}

TEST(ImageTest, ReadMissingFileReturnsEmpty)
{
    Image img = Image::readPPM("/definitely/not/a/file.ppm");
    EXPECT_TRUE(img.empty());
}

TEST(ImageTest, ReadRejectsNonPpm)
{
    const std::string path = "image_test_garbage.ppm";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a ppm at all", f);
    std::fclose(f);
    Image img = Image::readPPM(path);
    std::remove(path.c_str());
    EXPECT_TRUE(img.empty());
}
