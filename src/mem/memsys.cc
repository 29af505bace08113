#include "mem/memsys.hh"

#include <algorithm>
#include <numeric>

#include "common/contract.hh"
#include "common/logging.hh"

namespace pargpu
{

MemorySystem::MemorySystem(const MemSysConfig &config)
    : config_(config)
{
    if (config_.clusters == 0)
        fatal("memory system needs at least one cluster");

    CacheConfig tc;
    tc.size_bytes = config_.tc_size * config_.tc_scale;
    tc.assoc = config_.tc_assoc;
    tc.line_bytes = config_.line_bytes;
    for (unsigned c = 0; c < config_.clusters; ++c)
        tex_l1_.push_back(std::make_unique<SetAssocCache>(tc));

    CacheConfig l2;
    l2.size_bytes = config_.llc_size * config_.llc_scale;
    l2.assoc = config_.llc_assoc;
    l2.line_bytes = config_.line_bytes;
    llc_ = std::make_unique<SetAssocCache>(l2);

    // One DRAM timing view per cluster plus one for the geometry engine
    // (which runs on its own front-end clock).
    dram_ = std::make_unique<DramModel>(config_.dram, config_.clusters + 1);
}

Cycle
MemorySystem::read(unsigned cluster, Addr addr, Cycle now, TrafficClass cls)
{
    PARGPU_ASSERT(cluster < config_.clusters,
                  "read from unknown cluster ", cluster, " of ",
                  config_.clusters);
    // Geometry traffic runs on the front-end clock: give it the extra
    // DRAM timing view so it cannot interfere with cluster timelines.
    unsigned view = cls == TrafficClass::Geometry ? config_.clusters
                                                  : cluster;
    if (cls == TrafficClass::Texture) {
        if (tex_l1_[cluster]->access(addr))
            return now + config_.latencies.l1_hit;
        now += config_.latencies.l1_hit; // L1 lookup before going down.
    }
    if (llc_->access(addr))
        return now + config_.latencies.l2_hit;
    now += config_.latencies.l2_hit; // L2 lookup before DRAM.

    DramResult r = dram_->read(addr, now, view);
    traffic_[static_cast<int>(cls)] += config_.line_bytes;
    return r.complete;
}

Cycle
MemorySystem::readLines(unsigned cluster, std::span<const Addr> lines,
                        Cycle now, TrafficClass cls)
{
    Cycle done = now;
    for (Addr line : lines)
        done = std::max(done, read(cluster, line, now, cls));
    return done;
}

Cycle
MemorySystem::commitBatch(unsigned cluster,
                          std::span<const Addr> miss_lines, Cycle now,
                          TrafficClass cls)
{
    PARGPU_ASSERT(cluster < config_.clusters,
                  "commit from unknown cluster ", cluster, " of ",
                  config_.clusters);
    PARGPU_ASSERT(!miss_lines.empty(), "commit of a quad without misses");
    // Hit lines complete at now + L1 latency; misses re-enter the
    // hierarchy below the L1 exactly as read() would after its L1 lookup.
    const Cycle miss_issue = now + config_.latencies.l1_hit;
    Cycle done = miss_issue;
    for (Addr addr : miss_lines) {
        Cycle complete;
        if (llc_->access(addr)) {
            complete = miss_issue + config_.latencies.l2_hit;
        } else {
            DramResult r = dram_->read(
                addr, miss_issue + config_.latencies.l2_hit, cluster);
            traffic_[static_cast<int>(cls)] += config_.line_bytes;
            complete = r.complete;
        }
        done = std::max(done, complete);
    }
    return done;
}

ClusterMemFront::ClusterMemFront(MemorySystem &mem, unsigned cluster)
    : mem_(&mem), cluster_(cluster)
{
    PARGPU_ASSERT(cluster < mem.config().clusters,
                  "front for unknown cluster ", cluster, " of ",
                  mem.config().clusters);
}

ClusterMemFront::Batch
ClusterMemFront::stageLines(std::span<const Addr> lines,
                            std::vector<Addr> &miss_log)
{
    Batch b;
    b.any_line = !lines.empty();
    b.miss_begin = static_cast<std::uint32_t>(miss_log.size());
    SetAssocCache &l1 = *mem_->tex_l1_[cluster_];
    for (Addr line : lines) {
        if (!l1.access(line))
            miss_log.push_back(line);
    }
    b.miss_end = static_cast<std::uint32_t>(miss_log.size());
    return b;
}

void
MemorySystem::write(Addr addr, Bytes bytes, Cycle now, TrafficClass cls)
{
    unsigned view = cls == TrafficClass::Geometry ? config_.clusters : 0;
    dram_->write(addr, bytes, now, view);
    traffic_[static_cast<int>(cls)] += bytes;
}

void
MemorySystem::reset()
{
    for (auto &l1 : tex_l1_)
        l1->flush();
    llc_->flush();
    dram_->resetState();
    traffic_[0] = traffic_[1] = traffic_[2] = 0;
}

Bytes
MemorySystem::trafficBytes(TrafficClass cls) const
{
    return traffic_[static_cast<int>(cls)];
}

Bytes
MemorySystem::totalTrafficBytes() const
{
    return traffic_[0] + traffic_[1] + traffic_[2];
}

void
MemorySystem::exportStats(StatRegistry &stats,
                          const std::string &prefix) const
{
    std::uint64_t l1_hits = 0, l1_misses = 0;
    for (const auto &l1 : tex_l1_) {
        l1_hits += l1->hits();
        l1_misses += l1->misses();
    }
    stats.inc(prefix + ".tex_l1.hits", l1_hits);
    stats.inc(prefix + ".tex_l1.misses", l1_misses);
    stats.inc(prefix + ".llc.hits", llc_->hits());
    stats.inc(prefix + ".llc.misses", llc_->misses());
    stats.inc(prefix + ".dram.reads", dram_->reads());
    stats.inc(prefix + ".dram.row_hits", dram_->rowHits());
    stats.inc(prefix + ".dram.bytes_read", dram_->bytesRead());
    stats.inc(prefix + ".dram.bytes_written", dram_->bytesWritten());
    stats.inc(prefix + ".traffic.texture",
              trafficBytes(TrafficClass::Texture));
    stats.inc(prefix + ".traffic.color_depth",
              trafficBytes(TrafficClass::ColorDepth));
    stats.inc(prefix + ".traffic.geometry",
              trafficBytes(TrafficClass::Geometry));

    auto rate = [](std::uint64_t hits, std::uint64_t misses) {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits)
                                / static_cast<double>(total);
    };
    stats.set(prefix + ".tex_l1.hit_rate", rate(l1_hits, l1_misses));
    stats.set(prefix + ".llc.hit_rate", rate(llc_->hits(), llc_->misses()));
    stats.set(prefix + ".dram.row_hit_rate",
              rate(dram_->rowHits(), dram_->reads() - dram_->rowHits()));
}

} // namespace pargpu
