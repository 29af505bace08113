/**
 * @file
 * Workload analysis: per-game anisotropy-degree distributions (pixel
 * share and texel-cost share per N bucket), the statistic that determines
 * how much headroom each prediction stage has. Complements Table II with
 * the structural properties the evaluation depends on.
 */

#include "bench_util.hh"
#include "pargpu/sim.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    banner("Analysis", "anisotropy-degree distribution per game");

    for (const Workload &w : paperWorkloads()) {
        const GameTrace &t = w.trace;
        const Camera &cam = t.cameras[0];
        std::uint64_t pix[17] = {0};
        std::uint64_t tex[17] = {0};
        std::vector<SetupTriangle> tris;

        for (const DrawCall &d : t.scene.draws) {
            Mat4 mvp = cam.proj * cam.view * d.model;
            tris.clear();
            for (std::size_t i = 0; i + 2 < d.mesh.indices.size(); i += 3) {
                Vertex tv[3] = {
                    d.mesh.vertices[d.mesh.indices[i]],
                    d.mesh.vertices[d.mesh.indices[i + 1]],
                    d.mesh.vertices[d.mesh.indices[i + 2]],
                };
                setupTriangles(tv, mvp, 1.0f, d.mesh.texture_id, d.filter,
                               d.backface_cull, t.width, t.height, tris,
                               d.specular);
            }
            const TextureMap &texture = *t.scene.textures[d.mesh.texture_id];
            TextureSampler sampler(texture);
            for (const SetupTriangle &st : tris) {
                rasterizeTriangle(
                    st, st.min_x, st.min_y, st.max_x, st.max_y,
                    [&](const QuadFragment &q) {
                        AnisotropyInfo info = sampler.computeAnisotropy(
                            q.duvdx, q.duvdy, 16);
                        int cov = __builtin_popcount(q.coverage);
                        pix[info.anisoDegree] +=
                            static_cast<std::uint64_t>(cov);
                        tex[info.anisoDegree] +=
                            static_cast<std::uint64_t>(cov) *
                            info.sampleSize * 8;
                    });
            }
        }

        std::uint64_t tp = 0, tt = 0;
        for (int i = 1; i <= 16; ++i) {
            tp += pix[i];
            tt += tex[i];
        }
        double avg_n = 0.0;
        for (int i = 1; i <= 16; ++i)
            avg_n += static_cast<double>(i) * pix[i];
        avg_n /= static_cast<double>(tp > 0 ? tp : 1);

        std::printf("\n%s  (avg degree %.2f)\n", w.label.c_str(), avg_n);
        std::printf("  %4s %9s %12s\n", "N", "pixels", "texel cost");
        for (int i = 1; i <= 16; ++i) {
            if (pix[i] == 0)
                continue;
            std::printf("  %4d %8.1f%% %11.1f%%\n", i,
                        100.0 * pix[i] / tp, 100.0 * tex[i] / tt);
        }
    }
    return 0;
}
