#include <charconv>
#include <cstdlib>
#include <string>

#include "common/threadpool.hh"
#include "harness/session.hh"
#include "sim/pipeline.hh"
#include "simd/dispatch.hh"

namespace pargpu
{

EnvMap
processEnvironment()
{
    EnvMap env;
    for (const char *name :
         {"PARGPU_THREADS", "PARGPU_SIMD", "PARGPU_TILE_PARALLEL"})
        if (const char *v = std::getenv(name))
            env.emplace(name, v);
    return env;
}

Status
parseEnvironment(const EnvMap &env)
{
    auto get = [&env](const char *name) {
        const auto it = env.find(name);
        return it == env.end() ? std::string() : it->second;
    };
    std::string errors;
    auto reject = [&errors](const std::string &message) {
        if (!errors.empty())
            errors += "; ";
        errors += message;
    };

    const std::string threads_v = get("PARGPU_THREADS");
    unsigned threads = 0;
    if (!threads_v.empty()) {
        const char *end = threads_v.data() + threads_v.size();
        const std::from_chars_result r =
            std::from_chars(threads_v.data(), end, threads);
        if (r.ec != std::errc() || r.ptr != end || threads > 4096)
            reject("PARGPU_THREADS must be a whole number in [0, 4096] (0 "
                   "or unset: one per core), got '" + threads_v + "'");
    }

    const std::string simd_v = get("PARGPU_SIMD");
    simd::SimdTier tier = simd::detectTier();
    for (simd::SimdTier t : {simd::SimdTier::Scalar, simd::SimdTier::Sse,
                             simd::SimdTier::Avx2})
        if (simd_v == simd::tierName(t))
            tier = t;
    if (!simd_v.empty() && simd_v != simd::tierName(tier))
        reject("PARGPU_SIMD must be 'scalar', 'sse' or 'avx2'");
    else if (const std::string why = simd::tierUnavailable(tier); !why.empty())
        reject(why);

    const std::string tile_v = get("PARGPU_TILE_PARALLEL");
    if (!tile_v.empty() && tile_v != "0" && tile_v != "1")
        reject("PARGPU_TILE_PARALLEL must be '0' or '1', got '" + tile_v +
               "'");

    if (!errors.empty())
        return Status::fail(StatusCode::InvalidConfig, errors);
    ThreadPool::setBaseThreads(threads);
    simd::setActiveTier(tier);
    setTileParallelForced(tile_v == "1");
    return Status::success();
}

} // namespace pargpu
