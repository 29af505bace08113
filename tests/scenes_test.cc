/**
 * @file
 * Unit tests for mesh builders and procedural game scenes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "common/threadpool.hh"
#include "scenes/meshes.hh"
#include "scenes/scenes.hh"
#include "texture/mipmap.hh"
#include "texture/texture.hh"

using namespace pargpu;

TEST(MeshTest, GridHasExpectedCounts)
{
    Mesh m = makeGrid({0, 0, 0}, {1, 0, 0}, {0, 0, 1}, 4, 3, 2.0f, 3.0f,
                      0);
    EXPECT_EQ(m.vertices.size(), 5u * 4u);
    EXPECT_EQ(m.numTriangles(), 4u * 3u * 2u);
    EXPECT_EQ(m.indices.size(), m.numTriangles() * 3);
}

TEST(MeshTest, GridUvSpansRequestedScale)
{
    Mesh m = makeGrid({0, 0, 0}, {1, 0, 0}, {0, 0, 1}, 2, 2, 8.0f, 4.0f,
                      0);
    float max_u = 0.0f, max_v = 0.0f;
    for (const Vertex &v : m.vertices) {
        max_u = std::max(max_u, v.uv.x);
        max_v = std::max(max_v, v.uv.y);
    }
    EXPECT_FLOAT_EQ(max_u, 8.0f);
    EXPECT_FLOAT_EQ(max_v, 4.0f);
}

TEST(MeshTest, GridIndicesInRange)
{
    Mesh m = makeGrid({0, 0, 0}, {2, 0, 0}, {0, 1, 0}, 5, 7, 1, 1, 0);
    for (std::uint32_t i : m.indices)
        EXPECT_LT(i, m.vertices.size());
}

TEST(MeshTest, BoxHasSixFaces)
{
    Mesh m;
    m.texture_id = 0;
    appendBox(m, {0, 0, 0}, {1, 1, 1}, 1.0f);
    EXPECT_EQ(m.numTriangles(), 12u);
    EXPECT_EQ(m.vertices.size(), 24u);
}

TEST(MeshTest, BoxVerticesWithinExtents)
{
    Mesh m;
    appendBox(m, {1, 2, 3}, {0.5f, 1.0f, 2.0f}, 1.0f);
    for (const Vertex &v : m.vertices) {
        EXPECT_GE(v.pos.x, 0.5f - 1e-5f);
        EXPECT_LE(v.pos.x, 1.5f + 1e-5f);
        EXPECT_GE(v.pos.y, 1.0f - 1e-5f);
        EXPECT_LE(v.pos.y, 3.0f + 1e-5f);
        EXPECT_GE(v.pos.z, 1.0f - 1e-5f);
        EXPECT_LE(v.pos.z, 5.0f + 1e-5f);
    }
}

TEST(MeshTest, AppendMeshRebasesIndices)
{
    Mesh a = makeGrid({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 1, 1, 1, 1, 0);
    Mesh b = makeGrid({5, 0, 0}, {1, 0, 0}, {0, 1, 0}, 1, 1, 1, 1, 0);
    std::size_t averts = a.vertices.size();
    appendMesh(a, b);
    EXPECT_EQ(a.vertices.size(), 2 * averts);
    // Later indices must reference the second vertex block.
    bool any_rebased = false;
    for (std::size_t i = 6; i < a.indices.size(); ++i)
        any_rebased |= a.indices[i] >= averts;
    EXPECT_TRUE(any_rebased);
}

class GameSceneTest : public testing::TestWithParam<GameId>
{
};

TEST_P(GameSceneTest, TraceIsWellFormed)
{
    GameTrace t = buildGameTrace(GetParam(), 320, 240, 2);
    EXPECT_FALSE(t.scene.draws.empty());
    EXPECT_FALSE(t.scene.textures.empty());
    EXPECT_EQ(t.cameras.size(), 2u);
    EXPECT_EQ(t.recipes.size(), t.scene.textures.size());
    EXPECT_EQ(t.width, 320);
    EXPECT_EQ(t.height, 240);
    // Every draw references a valid texture.
    for (const DrawCall &d : t.scene.draws) {
        EXPECT_GE(d.mesh.texture_id, 0);
        EXPECT_LT(d.mesh.texture_id,
                  static_cast<int>(t.scene.textures.size()));
        EXPECT_FALSE(d.mesh.vertices.empty());
        EXPECT_EQ(d.mesh.indices.size() % 3, 0u);
    }
}

TEST_P(GameSceneTest, TexturesBoundAtDisjointAddresses)
{
    GameTrace t = buildGameTrace(GetParam(), 320, 240, 1);
    for (std::size_t i = 0; i + 1 < t.scene.textures.size(); ++i) {
        const TextureMap &a = *t.scene.textures[i];
        const TextureMap &b = *t.scene.textures[i + 1];
        EXPECT_GE(b.baseAddr(), a.baseAddr() + a.sizeBytes());
    }
}

TEST_P(GameSceneTest, DeterministicAcrossBuilds)
{
    GameTrace a = buildGameTrace(GetParam(), 320, 240, 2);
    GameTrace b = buildGameTrace(GetParam(), 320, 240, 2);
    ASSERT_EQ(a.scene.draws.size(), b.scene.draws.size());
    ASSERT_EQ(a.cameras.size(), b.cameras.size());
    for (std::size_t i = 0; i < a.scene.draws.size(); ++i) {
        EXPECT_EQ(a.scene.draws[i].mesh.vertices.size(),
                  b.scene.draws[i].mesh.vertices.size());
    }
    for (std::size_t i = 0; i < a.cameras.size(); ++i) {
        EXPECT_FLOAT_EQ(a.cameras[i].eye.x, b.cameras[i].eye.x);
        EXPECT_FLOAT_EQ(a.cameras[i].eye.z, b.cameras[i].eye.z);
    }
}

TEST_P(GameSceneTest, CameraMovesAcrossFrames)
{
    GameTrace t = buildGameTrace(GetParam(), 320, 240, 3);
    ASSERT_EQ(t.cameras.size(), 3u);
    float d01 = (t.cameras[1].eye - t.cameras[0].eye).length();
    EXPECT_GT(d01, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AllGames, GameSceneTest,
    testing::Values(GameId::HL2, GameId::Doom3, GameId::Grid, GameId::Nfs,
                    GameId::Stalker, GameId::Ut3, GameId::Wolf,
                    GameId::RBench));

TEST(PaperBenchmarksTest, MatchesTableTwo)
{
    auto list = paperBenchmarks();
    EXPECT_EQ(list.size(), 11u); // 3 + 3 HL2/doom3 resolutions + 5 games.
    int hl2 = 0, doom3 = 0;
    for (const BenchmarkEntry &e : list) {
        if (e.id == GameId::HL2)
            ++hl2;
        if (e.id == GameId::Doom3)
            ++doom3;
    }
    EXPECT_EQ(hl2, 3);
    EXPECT_EQ(doom3, 3);
}

TEST(GameAbbrTest, NamesMatchPaperTable)
{
    EXPECT_STREQ(gameAbbr(GameId::HL2), "HL2");
    EXPECT_STREQ(gameAbbr(GameId::Doom3), "doom3");
    EXPECT_STREQ(gameAbbr(GameId::Stalker), "stal");
    EXPECT_STREQ(gameAbbr(GameId::Wolf), "wolf");
}

TEST(GameSceneDeathTest, RejectsInvalidDimensions)
{
    EXPECT_EXIT(buildGameTrace(GameId::HL2, 0, 240, 1),
                testing::ExitedWithCode(1), "invalid");
}

TEST(GameSceneDeathTest, RejectsOverBudgetSizesBeforeAllocating)
{
    // Two billion cameras would be a std::bad_alloc, not a message.
    EXPECT_EXIT(buildGameTrace(GameId::HL2, 64, 48, 2000000000),
                testing::ExitedWithCode(1), "frames at most 1048576");
    // Sides and frames each at their cap, the product over budget.
    EXPECT_EXIT(buildGameTrace(GameId::HL2, 16384, 16384, 5),
                testing::ExitedWithCode(1), "buildGameTrace: viewport");
}

namespace
{

constexpr GameId kAllGames[] = {GameId::HL2,     GameId::Doom3, GameId::Grid,
                                GameId::Nfs,     GameId::Stalker,
                                GameId::Ut3,     GameId::Wolf,
                                GameId::RBench};

/**
 * Frozen FNV-1a digests over every texel of every mip level of each
 * game's textures, parallel to kAllGames. Pinned from the serial texture
 * builder; the banded one must reproduce them on any pool size, and the
 * row-major pyramid of each source raster must match them too.
 */
constexpr std::uint64_t kTexelDigests[] = {
    0x95d811e60815adb2ull, // HL2
    0x26d7956b15618d86ull, // doom3
    0x9e9e17638f368ca4ull, // grid
    0xd66acf5adee76a07ull, // nfs
    0x61dfdb611c554908ull, // stal
    0xac5c4263afa73864ull, // ut3
    0x123ec73317bcf855ull, // wolf
    0x75e0380aceccd067ull, // R.Bench
};

/**
 * Fold every texel of @p lv into the FNV-1a state @p h in row-major
 * (x, y) order, so the digest is independent of the host storage order.
 */
void
fnvLevel(std::uint64_t &h, const MipLevel &lv)
{
    for (int y = 0; y < lv.height; ++y) {
        for (int x = 0; x < lv.width; ++x) {
            const RGBA8 &t = lv.at(x, y);
            for (std::uint8_t b : {t.r, t.g, t.b, t.a}) {
                h ^= b;
                h *= 0x100000001b3ull;
            }
        }
    }
}

/** fnvLevel() over every mip level of @p tex. */
void
fnvTexels(std::uint64_t &h, const TextureMap &tex)
{
    for (int l = 0; l < tex.numLevels(); ++l)
        fnvLevel(h, tex.level(l));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Restores the process-default pool size when a test ends. */
struct DefaultThreadsGuard
{
    ~DefaultThreadsGuard() { ThreadPool::setDefaultThreads(0); }
};

} // namespace

TEST(SceneTextureOracleTest, TexelsMatchFrozenDigests)
{
    DefaultThreadsGuard guard;
    for (std::size_t g = 0; g < std::size(kAllGames); ++g) {
        const char *game = gameAbbr(kAllGames[g]);
        GameTrace t = buildGameTrace(kAllGames[g], 64, 48, 1);
        std::uint64_t h = kFnvOffset;
        for (const auto &tex : t.scene.textures)
            fnvTexels(h, *tex);
        EXPECT_EQ(h, kTexelDigests[g])
            << game << " (scene build): new digest " << hex(h);

        // Rebuild from the recipes at each pool size: as textures
        // (Morton host storage) and as the row-major pyramid of each
        // source raster.
        for (unsigned threads : {1u, 4u}) {
            ThreadPool::setDefaultThreads(threads);
            std::uint64_t hr = kFnvOffset;
            std::uint64_t hl = kFnvOffset;
            for (const TextureRecipe &rec : t.recipes) {
                std::vector<RGBA8> src =
                    generateTexture(rec.kind, rec.size, rec.seed);
                for (const MipLevel &lv :
                     buildMipPyramid(rec.size, rec.size, src))
                    fnvLevel(hl, lv);
                TextureMap tex(rec.size, rec.size, std::move(src), rec.wrap);
                EXPECT_EQ(tex.storage(), TexelStorage::Morton);
                fnvTexels(hr, tex);
            }
            EXPECT_EQ(hr, kTexelDigests[g])
                << game << " at " << threads
                << " threads, morton storage: new digest " << hex(hr);
            EXPECT_EQ(hl, kTexelDigests[g])
                << game << " at " << threads
                << " threads, row-major pyramid: new digest " << hex(hl);
        }
    }
}
