/**
 * @file
 * Multi-view (stereo VR) rendering support.
 *
 * The paper's simulation layer extends ATTILA with multi-view VR (Section
 * VI); this module provides the same capability for pargpu: one logical
 * frame is rendered once per eye from laterally-offset cameras, and the
 * per-eye measurements are combined. VR doubles the fragment and texture
 * workload for the same scene, which is exactly the regime where PATU's
 * texel savings matter most.
 */

#ifndef PARGPU_SIM_STEREO_HH
#define PARGPU_SIM_STEREO_HH

#include "sim/pipeline.hh"

namespace pargpu
{

/** Stereo camera-rig parameters. */
struct StereoConfig
{
    float ipd = 0.064f; ///< Inter-pupillary distance in world units.
};

/** Both eyes of one stereo frame. */
struct StereoFrame
{
    FrameOutput left;
    FrameOutput right;

    /** Combined frame time: the eyes render back-to-back on one GPU. */
    Cycle
    totalCycles() const
    {
        return left.stats.total_cycles + right.stats.total_cycles;
    }

    /** Sum of both eyes' DRAM traffic. */
    Bytes
    totalTraffic() const
    {
        return left.stats.totalTraffic() + right.stats.totalTraffic();
    }
};

/**
 * Derive the per-eye camera from a center camera by shifting the eye
 * position along the view-space x axis by +-ipd/2.
 *
 * @param center     The mono camera.
 * @param eye_index  0 = left, 1 = right.
 * @param config     Rig parameters.
 */
Camera stereoEye(const Camera &center, int eye_index,
                 const StereoConfig &config = {});

/**
 * Render both eyes of @p scene through @p sim at width x height per eye.
 *
 * Each eye's renderFrame() runs the simulator's serial memory phases
 * itself, so code running inside a frame of @p sim must not call this.
 */
StereoFrame renderStereo(GpuSimulator &sim, const Scene &scene,
                         const Camera &center, int width, int height,
                         const StereoConfig &config = {});

} // namespace pargpu

#endif // PARGPU_SIM_STEREO_HH
