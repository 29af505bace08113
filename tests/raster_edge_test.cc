/**
 * @file
 * Edge-case tests for the rasterizer: degenerate triangles, clipping
 * corner cases, tile-boundary behaviour and coverage accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "harness/session.hh"
#include "sim/raster.hh"

using namespace pargpu;

namespace
{

Mat4
mvp()
{
    return Mat4::perspective(1.0f, 1.0f, 0.5f, 100.0f) *
        Mat4::lookAt({0, 0, 0}, {0, 0, -1}, {0, 1, 0});
}

int
setup(const Vertex tri[3], std::vector<SetupTriangle> &out,
      bool cull = true, int vp = 64)
{
    return setupTriangles(tri, mvp(), 1.0f, 0, FilterMode::Trilinear,
                          cull, vp, vp, out);
}

} // namespace

TEST(RasterEdgeTest, DegenerateZeroAreaTriangleRejected)
{
    Vertex tri[3] = {
        {{-1, 0, -5}, {0, 0}},
        {{0, 0, -5}, {0.5f, 0}},
        {{1, 0, -5}, {1, 0}}, // Collinear.
    };
    std::vector<SetupTriangle> out;
    EXPECT_EQ(setup(tri, out, false), 0);
}

TEST(RasterEdgeTest, DuplicateVerticesRejected)
{
    Vertex v{{0, 0, -5}, {0, 0}};
    Vertex tri[3] = {v, v, v};
    std::vector<SetupTriangle> out;
    EXPECT_EQ(setup(tri, out, false), 0);
}

TEST(RasterEdgeTest, TriangleFullyOffscreenRejected)
{
    Vertex tri[3] = {
        {{100, 100, -5}, {0, 0}},
        {{101, 100, -5}, {1, 0}},
        {{100, 101, -5}, {0, 1}},
    };
    std::vector<SetupTriangle> out;
    EXPECT_EQ(setup(tri, out), 0);
}

TEST(RasterEdgeTest, TwoVerticesBehindCameraStillClips)
{
    Vertex tri[3] = {
        {{-1, -1, -10}, {0, 0}},
        {{0, 1, 5}, {0.5f, 1}},  // Behind.
        {{1, -1, 5}, {1, 0}},    // Behind.
    };
    std::vector<SetupTriangle> out;
    // Clipping a triangle with one in-front vertex yields one triangle.
    EXPECT_EQ(setup(tri, out, false), 1);
}

TEST(RasterEdgeTest, TinySubPixelTriangleMayCoverNothing)
{
    // A triangle much smaller than a pixel: setup succeeds but coverage
    // may legitimately be empty; the walk must terminate regardless.
    Vertex tri[3] = {
        {{0.001f, 0.001f, -5}, {0, 0}},
        {{0.002f, 0.001f, -5}, {1, 0}},
        {{0.001f, 0.002f, -5}, {0, 1}},
    };
    std::vector<SetupTriangle> out;
    if (setup(tri, out, false) == 1) {
        int covered = 0;
        rasterizeTriangle(out[0], out[0].min_x, out[0].min_y,
                          out[0].max_x, out[0].max_y,
                          [&](const QuadFragment &q) {
                              covered += __builtin_popcount(q.coverage);
                          });
        EXPECT_LE(covered, 4);
    }
}

TEST(RasterEdgeTest, AdjacentTrianglesCoverPlaneWithoutCracks)
{
    // A screen-space quad split into two triangles: together they must
    // cover every interior pixel at least once (no cracks), and the
    // total double-covered count along the shared diagonal must stay
    // small relative to the area.
    Vertex a[3] = {
        {{-2, -2, -5}, {0, 0}},
        {{2, -2, -5}, {1, 0}},
        {{2, 2, -5}, {1, 1}},
    };
    Vertex b[3] = {
        {{-2, -2, -5}, {0, 0}},
        {{2, 2, -5}, {1, 1}},
        {{-2, 2, -5}, {0, 1}},
    };
    std::vector<SetupTriangle> out;
    ASSERT_EQ(setup(a, out, false), 1);
    ASSERT_EQ(setup(b, out, false), 1);

    std::map<std::pair<int, int>, int> hits;
    for (const SetupTriangle &st : out) {
        rasterizeTriangle(st, st.min_x, st.min_y, st.max_x, st.max_y,
                          [&](const QuadFragment &q) {
                              for (int i = 0; i < 4; ++i) {
                                  if (q.coverage & (1u << i)) {
                                      ++hits[{q.x + (i & 1),
                                              q.y + (i >> 1)}];
                                  }
                              }
                          });
    }

    // Interior region well inside the quad: every pixel covered.
    int interior = 0, missing = 0, doubled = 0;
    for (int y = 20; y < 44; ++y) {
        for (int x = 20; x < 44; ++x) {
            ++interior;
            auto it = hits.find({x, y});
            if (it == hits.end())
                ++missing;
            else if (it->second > 1)
                ++doubled;
        }
    }
    EXPECT_EQ(missing, 0);
    // Without a strict fill convention the shared diagonal may double-
    // hit; it must stay a thin line, not an area.
    EXPECT_LT(doubled, interior / 8);
}

TEST(RasterEdgeTest, QuadWindowClampNeverEmitsOutside)
{
    Vertex tri[3] = {
        {{-3, -3, -4}, {0, 0}},
        {{3, -3, -4}, {1, 0}},
        {{0, 3, -4}, {0.5f, 1}},
    };
    std::vector<SetupTriangle> out;
    ASSERT_EQ(setup(tri, out), 1);
    // Odd-aligned window: quads are even-aligned but coverage must stay
    // within the window.
    rasterizeTriangle(out[0], 17, 9, 33, 25, [](const QuadFragment &q) {
        for (int i = 0; i < 4; ++i) {
            if (q.coverage & (1u << i)) {
                int px = q.x + (i & 1);
                int py = q.y + (i >> 1);
                EXPECT_GE(px, 17);
                EXPECT_LE(px, 33);
                EXPECT_GE(py, 9);
                EXPECT_LE(py, 25);
            }
        }
    });
}

TEST(RasterEdgeTest, CoverageBitsMatchPixelPositions)
{
    // A half-plane edge through a quad: bits must correspond to the
    // documented (+0,+0)(+1,+0)(+0,+1)(+1,+1) layout.
    Vertex tri[3] = {
        {{-10, -10, -5}, {0, 0}},
        {{10, -10, -5}, {1, 0}},
        {{-10, 10, -5}, {0, 1}},
    };
    std::vector<SetupTriangle> out;
    ASSERT_EQ(setup(tri, out), 1);
    bool found_partial = false;
    rasterizeTriangle(out[0], out[0].min_x, out[0].min_y, out[0].max_x,
                      out[0].max_y, [&](const QuadFragment &q) {
                          unsigned c = q.coverage;
                          if (c != 0xF && c != 0)
                              found_partial = true;
                      });
    EXPECT_TRUE(found_partial); // The hypotenuse creates partial quads.
}

TEST(RasterEdgeTest, NearClipPreservesUvRange)
{
    // After clipping, interpolated uv at covered pixels stays within the
    // original attribute range.
    Vertex tri[3] = {
        {{-2, -1, -8}, {0, 0}},
        {{2, -1, -8}, {1, 0}},
        {{0, 1, 2}, {0.5f, 1}}, // Behind the camera.
    };
    std::vector<SetupTriangle> out;
    int n = setup(tri, out, false);
    ASSERT_GE(n, 1);
    for (const SetupTriangle &st : out) {
        rasterizeTriangle(st, st.min_x, st.min_y, st.max_x, st.max_y,
                          [&](const QuadFragment &q) {
                              for (int i = 0; i < 4; ++i) {
                                  if (!(q.coverage & (1u << i)))
                                      continue;
                                  EXPECT_GE(q.uv[i].x, -0.05f);
                                  EXPECT_LE(q.uv[i].x, 1.05f);
                                  EXPECT_GE(q.uv[i].y, -0.05f);
                                  EXPECT_LE(q.uv[i].y, 1.05f);
                              }
                          });
    }
}

TEST(RasterEdgeTest, OverflowingPositionsAreCulled)
{
    // Positions scaled by 1e30 are finite, so a trace file may carry
    // them, but the edge function of such a triangle can overflow to
    // NaN. It is culled like a zero-area one: every triangle that
    // survives setup has a finite positive area (checked builds would
    // otherwise abort on the setup contract), and no pixel goes
    // non-finite.
    GameTrace trace = buildGameTrace(GameId::HL2, 64, 48, 1);
    for (DrawCall &d : trace.scene.draws)
        for (Vertex &v : d.mesh.vertices)
            v.pos = v.pos * 1e30f;
    const Camera &cam = trace.cameras.front();
    for (const DrawCall &d : trace.scene.draws) {
        const Mat4 mvp = cam.proj * cam.view * d.model;
        const Mesh &m = d.mesh;
        for (std::size_t t = 0; t + 2 < m.indices.size(); t += 3) {
            const Vertex tri[3] = {m.vertices[m.indices[t]],
                                   m.vertices[m.indices[t + 1]],
                                   m.vertices[m.indices[t + 2]]};
            std::vector<SetupTriangle> out;
            setupTriangles(tri, mvp, 1.0f, 0, d.filter, d.backface_cull,
                           trace.width, trace.height, out);
            for (const SetupTriangle &st : out)
                ASSERT_TRUE(std::isfinite(st.inv_area) && st.inv_area > 0.0f)
                    << "triangle " << t / 3 << " inv_area " << st.inv_area;
        }
    }

    Session session;
    const RunResult r = session.run(trace, RunConfig{});
    ASSERT_EQ(r.frames.size(), 1u);
    EXPECT_GT(r.frames.front().triangles_setup, 0u);
    for (const Color4f &c : r.images.front().pixels())
        ASSERT_TRUE(std::isfinite(c.r) && std::isfinite(c.g) &&
                    std::isfinite(c.b) && std::isfinite(c.a));
}
