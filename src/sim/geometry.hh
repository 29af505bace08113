/**
 * @file
 * Scene description consumed by the GPU simulator: vertices, meshes, draw
 * calls, cameras and textures bound into the simulated address space.
 */

#ifndef PARGPU_SIM_GEOMETRY_HH
#define PARGPU_SIM_GEOMETRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/color.hh"
#include "common/vec.hh"
#include "texture/sampler.hh"
#include "texture/texture.hh"

namespace pargpu
{

/** One vertex: object-space position + texture coordinate. */
struct Vertex
{
    Vec3 pos;
    Vec2 uv;
};

/** Size of a vertex as fetched from GPU memory (pos + uv floats). */
inline constexpr unsigned kVertexBytes = 5 * sizeof(float);

/** An indexed triangle mesh bound to one texture. */
struct Mesh
{
    std::vector<Vertex> vertices;
    std::vector<std::uint32_t> indices; ///< 3 per triangle.
    int texture_id = 0;                 ///< Index into Scene::textures.

    std::size_t numTriangles() const { return indices.size() / 3; }
};

/** A draw call: a mesh, its model transform and filtering request. */
struct DrawCall
{
    Mesh mesh;
    Mat4 model = Mat4::identity();
    FilterMode filter = FilterMode::Anisotropic;
    bool backface_cull = true;
    /**
     * Specular-glint pass: adds a highlight that is a steep nonlinear
     * function of the filtered texture luma (water ripple / glossy track
     * reflections). Such effects amplify filtering differences — blurring
     * the texture pushes luma below the glint threshold and the effect
     * disappears, exactly the artifact the paper's Fig. 8 calls out.
     */
    bool specular = false;
};

/** View + projection pair. */
struct Camera
{
    Mat4 view = Mat4::identity();
    Mat4 proj = Mat4::identity();
    Vec3 eye;
};

/**
 * A renderable scene: an owned texture set (stable addresses) and the draw
 * list. Scenes are built by src/scenes generators or loaded from traces.
 */
struct Scene
{
    std::string name;
    std::vector<std::unique_ptr<TextureMap>> textures;
    std::vector<DrawCall> draws;
    Color4f clear_color{0.05f, 0.07f, 0.12f, 1.0f};

    /**
     * Add a texture and bind it at the next free address.
     * @return Its texture id.
     */
    int
    addTexture(std::unique_ptr<TextureMap> tex)
    {
        Addr base = next_texture_addr_;
        tex->setBaseAddr(base);
        next_texture_addr_ = base + tex->sizeBytes();
        // Keep successive textures line-aligned.
        next_texture_addr_ = (next_texture_addr_ + 63) & ~Addr{63};
        textures.push_back(std::move(tex));
        return static_cast<int>(textures.size()) - 1;
    }

    /** Total triangles across all draw calls. */
    std::size_t
    numTriangles() const
    {
        std::size_t n = 0;
        for (const DrawCall &d : draws)
            n += d.mesh.numTriangles();
        return n;
    }

  private:
    Addr next_texture_addr_ = 0x1000'0000; // AddressMap::kTextureBase
};

} // namespace pargpu

#endif // PARGPU_SIM_GEOMETRY_HH
