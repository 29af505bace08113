/**
 * @file
 * Unit tests for trace serialization (capture/replay round trip).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/trace.hh"

using namespace pargpu;

namespace
{

class TraceRoundTrip : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        std::remove(path.c_str());
    }

    std::string path = "trace_test.pgtrace";
};

} // namespace

TEST_F(TraceRoundTrip, PreservesStructure)
{
    GameTrace original = buildGameTrace(GameId::Wolf, 320, 240, 2);
    ASSERT_TRUE(writeTrace(original, path));

    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.id, original.id);
    EXPECT_EQ(loaded.width, original.width);
    EXPECT_EQ(loaded.height, original.height);
    EXPECT_EQ(loaded.scene.draws.size(), original.scene.draws.size());
    EXPECT_EQ(loaded.scene.textures.size(),
              original.scene.textures.size());
    EXPECT_EQ(loaded.cameras.size(), original.cameras.size());
    EXPECT_EQ(loaded.recipes.size(), original.recipes.size());
}

TEST_F(TraceRoundTrip, PreservesVertexData)
{
    GameTrace original = buildGameTrace(GameId::Ut3, 320, 240, 1);
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);

    for (std::size_t d = 0; d < original.scene.draws.size(); ++d) {
        const Mesh &om = original.scene.draws[d].mesh;
        const Mesh &lm = loaded.scene.draws[d].mesh;
        ASSERT_EQ(om.vertices.size(), lm.vertices.size());
        ASSERT_EQ(om.indices.size(), lm.indices.size());
        for (std::size_t v = 0; v < om.vertices.size(); ++v) {
            EXPECT_FLOAT_EQ(om.vertices[v].pos.x, lm.vertices[v].pos.x);
            EXPECT_FLOAT_EQ(om.vertices[v].pos.z, lm.vertices[v].pos.z);
            EXPECT_FLOAT_EQ(om.vertices[v].uv.x, lm.vertices[v].uv.x);
        }
        EXPECT_EQ(om.texture_id, lm.texture_id);
        EXPECT_EQ(original.scene.draws[d].filter,
                  loaded.scene.draws[d].filter);
        EXPECT_EQ(original.scene.draws[d].backface_cull,
                  loaded.scene.draws[d].backface_cull);
        EXPECT_EQ(original.scene.draws[d].specular,
                  loaded.scene.draws[d].specular);
    }
}

TEST_F(TraceRoundTrip, RegeneratesIdenticalTextures)
{
    GameTrace original = buildGameTrace(GameId::Doom3, 320, 240, 1);
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);

    for (std::size_t t = 0; t < original.scene.textures.size(); ++t) {
        const TextureMap &ot = *original.scene.textures[t];
        const TextureMap &lt = *loaded.scene.textures[t];
        ASSERT_EQ(ot.width(), lt.width());
        EXPECT_EQ(ot.baseAddr(), lt.baseAddr());
        // Spot-check texel content equality.
        const MipLevel &ol = ot.level(0);
        const MipLevel &ll = lt.level(0);
        for (int i = 0; i < ol.width; i += 7) {
            EXPECT_EQ(ol.at(i, i).r, ll.at(i, i).r);
            EXPECT_EQ(ol.at(i, i).g, ll.at(i, i).g);
        }
    }
}

TEST_F(TraceRoundTrip, PreservesCameras)
{
    GameTrace original = buildGameTrace(GameId::Grid, 320, 240, 3);
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);
    for (std::size_t i = 0; i < original.cameras.size(); ++i) {
        EXPECT_FLOAT_EQ(original.cameras[i].eye.x, loaded.cameras[i].eye.x);
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r) {
                EXPECT_FLOAT_EQ(original.cameras[i].view.m[c][r],
                                loaded.cameras[i].view.m[c][r]);
                EXPECT_FLOAT_EQ(original.cameras[i].proj.m[c][r],
                                loaded.cameras[i].proj.m[c][r]);
            }
        }
    }
}

TEST(TraceErrorTest, MissingFileFails)
{
    bool ok = true;
    readTrace("/no/such/file.pgtrace", ok);
    EXPECT_FALSE(ok);
}

TEST(TraceErrorTest, GarbageFileFails)
{
    const std::string path = "trace_test_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    bool ok = true;
    readTrace(path, ok);
    std::remove(path.c_str());
    EXPECT_FALSE(ok);
}

TEST(TraceErrorTest, TruncatedFileFails)
{
    GameTrace original = buildGameTrace(GameId::Wolf, 320, 240, 1);
    const std::string full = "trace_test_full.pgtrace";
    const std::string cut = "trace_test_cut.pgtrace";
    ASSERT_TRUE(writeTrace(original, full));

    // Copy the first 100 bytes only.
    std::FILE *in = std::fopen(full.c_str(), "rb");
    std::FILE *out = std::fopen(cut.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    char buf[100];
    std::size_t n = std::fread(buf, 1, sizeof(buf), in);
    std::fwrite(buf, 1, n, out);
    std::fclose(in);
    std::fclose(out);

    bool ok = true;
    readTrace(cut, ok);
    EXPECT_FALSE(ok);
    std::remove(full.c_str());
    std::remove(cut.c_str());
}

// --- Semantic validation ---------------------------------------------
// Each case writes a valid trace, overwrites one 32-bit field at its
// offset in the file format (see writeTrace()), and expects the load to
// fail instead of handing the renderer a value it would index unchecked.

namespace
{

/** Byte offsets of the fields the validation cases patch. */
struct TraceLayout
{
    long id = 0;            ///< GameId.
    long width = 0;
    long height = 0;
    long recipe_kind = 0;   ///< First recipe's TextureKind.
    long recipe_wrap = 0;   ///< First recipe's WrapMode.
    long draw_texture = 0;  ///< First draw's texture id.
    long draw_filter = 0;   ///< First draw's FilterMode.
    long draw_index = 0;    ///< First draw's first vertex index.
    std::uint32_t textures = 0;
    std::uint32_t vertices = 0; ///< First draw's vertex count.
};

TraceLayout
layoutOf(const GameTrace &t)
{
    TraceLayout l;
    l.id = 4 + 4 + static_cast<long>(t.name.size());
    l.width = l.id + 4;
    l.height = l.width + 4;
    const long recipes = l.height + 8; // Past the recipe count.
    l.recipe_kind = recipes;
    l.recipe_wrap = recipes + 12;
    l.draw_texture = recipes + 16 * static_cast<long>(t.recipes.size()) + 4;
    l.draw_filter = l.draw_texture + 4;
    const Mesh &m = t.scene.draws.front().mesh;
    // filter, flags, model matrix, vertex count, vertices, index count.
    l.draw_index = l.draw_filter + 4 + 4 + 64 + 4 +
        20 * static_cast<long>(m.vertices.size()) + 4;
    l.textures = static_cast<std::uint32_t>(t.recipes.size());
    l.vertices = static_cast<std::uint32_t>(m.vertices.size());
    return l;
}

class TraceValidation : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace = buildGameTrace(GameId::Wolf, 64, 48, 1);
        layout = layoutOf(trace);
        ASSERT_TRUE(writeTrace(trace, path));
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
    }

    /** Overwrite the u32 at @p offset with @p v, then load the file. */
    bool
    loadPatched(long offset, std::uint32_t v)
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        EXPECT_NE(f, nullptr);
        if (!f)
            return true;
        EXPECT_EQ(std::fseek(f, offset, SEEK_SET), 0);
        EXPECT_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
        std::fclose(f);
        bool ok = false;
        readTrace(path, ok);
        return ok;
    }

    GameTrace trace;
    TraceLayout layout;
    std::string path = "trace_test_validation.pgtrace";
};

} // namespace

TEST_F(TraceValidation, LayoutMatchesWrittenFile)
{
    // Rewriting each field with its own value keeps the trace valid,
    // which pins the offsets the other cases patch.
    const DrawCall &d = trace.scene.draws.front();
    EXPECT_TRUE(loadPatched(layout.id, static_cast<std::uint32_t>(trace.id)));
    EXPECT_TRUE(loadPatched(layout.width, 64));
    EXPECT_TRUE(loadPatched(layout.height, 48));
    EXPECT_TRUE(loadPatched(
        layout.recipe_kind,
        static_cast<std::uint32_t>(trace.recipes.front().kind)));
    EXPECT_TRUE(loadPatched(
        layout.recipe_wrap,
        static_cast<std::uint32_t>(trace.recipes.front().wrap)));
    EXPECT_TRUE(loadPatched(layout.draw_texture,
                            static_cast<std::uint32_t>(d.mesh.texture_id)));
    EXPECT_TRUE(loadPatched(layout.draw_filter,
                            static_cast<std::uint32_t>(d.filter)));
    EXPECT_TRUE(loadPatched(layout.draw_index, d.mesh.indices.front()));
}

TEST_F(TraceValidation, RejectsTextureIdPastTextureCount)
{
    EXPECT_FALSE(loadPatched(layout.draw_texture, layout.textures));
}

TEST_F(TraceValidation, RejectsIndexPastVertexCount)
{
    EXPECT_FALSE(loadPatched(layout.draw_index, layout.vertices));
}

TEST_F(TraceValidation, RejectsTextureKindOutOfRange)
{
    EXPECT_FALSE(loadPatched(
        layout.recipe_kind,
        static_cast<std::uint32_t>(TextureKind::Panels) + 1));
}

TEST_F(TraceValidation, RejectsWrapModeOutOfRange)
{
    EXPECT_FALSE(loadPatched(
        layout.recipe_wrap,
        static_cast<std::uint32_t>(WrapMode::ClampToEdge) + 1));
}

TEST_F(TraceValidation, RejectsFilterModeOutOfRange)
{
    EXPECT_FALSE(loadPatched(
        layout.draw_filter,
        static_cast<std::uint32_t>(FilterMode::Anisotropic) + 1));
}

TEST_F(TraceValidation, RejectsGameIdOutOfRange)
{
    EXPECT_FALSE(loadPatched(layout.id,
                             static_cast<std::uint32_t>(GameId::RBench) + 1));
}

TEST_F(TraceValidation, RejectsZeroWidth)
{
    EXPECT_FALSE(loadPatched(layout.width, 0));
}

TEST_F(TraceValidation, RejectsOversizedHeight)
{
    EXPECT_FALSE(loadPatched(layout.height, kMaxTraceViewport + 1));
}

TEST(TraceBudget, CapsViewportTimesFrames)
{
    EXPECT_TRUE(withinTraceBudget(1280, 1024, 4));
    EXPECT_TRUE(withinTraceBudget(kMaxTraceViewport, kMaxTraceViewport, 4));
    EXPECT_FALSE(withinTraceBudget(kMaxTraceViewport, kMaxTraceViewport, 5));
    EXPECT_FALSE(withinTraceBudget(kMaxTraceViewport, kMaxTraceViewport,
                                   kMaxTraceCameras));
    EXPECT_FALSE(withinTraceBudget(kMaxTraceViewport + 1, 1, 1));
    EXPECT_FALSE(withinTraceBudget(1, 1, kMaxTraceCameras + 1));
    // Sides far past their cap must not overflow the product into range.
    EXPECT_FALSE(withinTraceBudget(std::uint64_t{1} << 32,
                                   std::uint64_t{1} << 32, 1));
}

TEST(TraceBudget, ReadTraceRejectsViewportTimesCamerasOverBudget)
{
    const std::string path = "trace_test_budget.pgtrace";
    for (int frames : {4, 5}) {
        GameTrace t = buildGameTrace(GameId::Wolf, 64, 48, frames);
        t.width = static_cast<int>(kMaxTraceViewport);
        t.height = static_cast<int>(kMaxTraceViewport);
        ASSERT_TRUE(writeTrace(t, path));
        bool ok = false;
        readTrace(path, ok);
        EXPECT_EQ(ok, frames == 4) << frames << " frames";
    }
    std::remove(path.c_str());
}
