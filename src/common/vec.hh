/**
 * @file
 * Minimal dense vector / matrix math used by the rendering pipeline.
 *
 * Only the operations the simulator actually needs are provided: the goal is
 * a small, easily-audited header rather than a general linear-algebra
 * package.
 */

#ifndef PARGPU_COMMON_VEC_HH
#define PARGPU_COMMON_VEC_HH

#include <array>
#include <cmath>

namespace pargpu
{

/** 2-component float vector (texture coordinates, screen positions). */
struct Vec2
{
    float x = 0.0f;
    float y = 0.0f;

    constexpr Vec2() = default;
    constexpr Vec2(float xv, float yv) : x(xv), y(yv) {}

    constexpr Vec2 operator+(const Vec2 &o) const { return {x + o.x, y + o.y}; }
    constexpr Vec2 operator-(const Vec2 &o) const { return {x - o.x, y - o.y}; }
    constexpr Vec2 operator*(float s) const { return {x * s, y * s}; }
    constexpr Vec2 operator/(float s) const { return {x / s, y / s}; }
    constexpr Vec2 &operator+=(const Vec2 &o) { x += o.x; y += o.y; return *this; }

    constexpr float dot(const Vec2 &o) const { return x * o.x + y * o.y; }
    float length() const { return std::sqrt(dot(*this)); }
};

/** 3-component float vector (positions, normals). */
struct Vec3
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;

    constexpr Vec3() = default;
    constexpr Vec3(float xv, float yv, float zv) : x(xv), y(yv), z(zv) {}

    constexpr Vec3 operator+(const Vec3 &o) const
    { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(const Vec3 &o) const
    { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
    constexpr Vec3 operator/(float s) const { return {x / s, y / s, z / s}; }
    constexpr Vec3 &operator+=(const Vec3 &o)
    { x += o.x; y += o.y; z += o.z; return *this; }

    constexpr float dot(const Vec3 &o) const
    { return x * o.x + y * o.y + z * o.z; }

    constexpr Vec3 cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y,
                z * o.x - x * o.z,
                x * o.y - y * o.x};
    }

    float length() const { return std::sqrt(dot(*this)); }

    Vec3 normalized() const
    {
        float len = length();
        return len > 0.0f ? *this / len : Vec3{};
    }
};

/** 4-component float vector (homogeneous clip-space positions). */
struct Vec4
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;
    float w = 0.0f;

    constexpr Vec4() = default;
    constexpr Vec4(float xv, float yv, float zv, float wv)
        : x(xv), y(yv), z(zv), w(wv) {}
    constexpr Vec4(const Vec3 &v, float wv) : x(v.x), y(v.y), z(v.z), w(wv) {}

    constexpr Vec4 operator+(const Vec4 &o) const
    { return {x + o.x, y + o.y, z + o.z, w + o.w}; }
    constexpr Vec4 operator-(const Vec4 &o) const
    { return {x - o.x, y - o.y, z - o.z, w - o.w}; }
    constexpr Vec4 operator*(float s) const
    { return {x * s, y * s, z * s, w * s}; }

    constexpr Vec3 xyz() const { return {x, y, z}; }
};

/**
 * Column-major 4x4 float matrix.
 *
 * m[c][r] stores column c, row r, matching OpenGL conventions so that
 * transform pipelines read naturally as projection * view * model.
 */
struct Mat4
{
    std::array<std::array<float, 4>, 4> m{};

    /** Identity matrix. */
    static constexpr Mat4
    identity()
    {
        Mat4 r;
        for (int i = 0; i < 4; ++i)
            r.m[i][i] = 1.0f;
        return r;
    }

    /** Uniform translation. */
    static constexpr Mat4
    translate(const Vec3 &t)
    {
        Mat4 r = identity();
        r.m[3][0] = t.x;
        r.m[3][1] = t.y;
        r.m[3][2] = t.z;
        return r;
    }

    /** Non-uniform scale. */
    static constexpr Mat4
    scale(const Vec3 &s)
    {
        Mat4 r;
        r.m[0][0] = s.x;
        r.m[1][1] = s.y;
        r.m[2][2] = s.z;
        r.m[3][3] = 1.0f;
        return r;
    }

    /** Rotation about the Y axis by @p radians. */
    static Mat4
    rotateY(float radians)
    {
        Mat4 r = identity();
        float c = std::cos(radians), s = std::sin(radians);
        r.m[0][0] = c;
        r.m[0][2] = -s;
        r.m[2][0] = s;
        r.m[2][2] = c;
        return r;
    }

    /**
     * Right-handed perspective projection.
     *
     * @param fovy_radians  Vertical field of view.
     * @param aspect        Width / height.
     * @param znear         Near plane distance (> 0).
     * @param zfar          Far plane distance (> znear).
     */
    static Mat4
    perspective(float fovy_radians, float aspect, float znear, float zfar)
    {
        Mat4 r;
        float f = 1.0f / std::tan(fovy_radians * 0.5f);
        r.m[0][0] = f / aspect;
        r.m[1][1] = f;
        r.m[2][2] = (zfar + znear) / (znear - zfar);
        r.m[2][3] = -1.0f;
        r.m[3][2] = (2.0f * zfar * znear) / (znear - zfar);
        return r;
    }

    /** Right-handed look-at view matrix. */
    static Mat4
    lookAt(const Vec3 &eye, const Vec3 &center, const Vec3 &up)
    {
        Vec3 fwd = (center - eye).normalized();
        Vec3 side = fwd.cross(up).normalized();
        Vec3 upv = side.cross(fwd);
        Mat4 r = identity();
        r.m[0][0] = side.x; r.m[1][0] = side.y; r.m[2][0] = side.z;
        r.m[0][1] = upv.x;  r.m[1][1] = upv.y;  r.m[2][1] = upv.z;
        r.m[0][2] = -fwd.x; r.m[1][2] = -fwd.y; r.m[2][2] = -fwd.z;
        r.m[3][0] = -side.dot(eye);
        r.m[3][1] = -upv.dot(eye);
        r.m[3][2] = fwd.dot(eye);
        return r;
    }

    Mat4
    operator*(const Mat4 &o) const
    {
        Mat4 r;
        for (int c = 0; c < 4; ++c) {
            for (int row = 0; row < 4; ++row) {
                float acc = 0.0f;
                for (int k = 0; k < 4; ++k)
                    acc += m[k][row] * o.m[c][k];
                r.m[c][row] = acc;
            }
        }
        return r;
    }

    Vec4
    operator*(const Vec4 &v) const
    {
        return {
            m[0][0] * v.x + m[1][0] * v.y + m[2][0] * v.z + m[3][0] * v.w,
            m[0][1] * v.x + m[1][1] * v.y + m[2][1] * v.z + m[3][1] * v.w,
            m[0][2] * v.x + m[1][2] * v.y + m[2][2] * v.z + m[3][2] * v.w,
            m[0][3] * v.x + m[1][3] * v.y + m[2][3] * v.z + m[3][3] * v.w,
        };
    }
};

} // namespace pargpu

#endif // PARGPU_COMMON_VEC_HH
