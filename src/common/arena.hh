/**
 * @file
 * Bump-pointer arena for hot-path scratch allocations.
 *
 * The texture unit materializes up to 64 trilinear samples per quad; going
 * through the heap for those (a vector of samples per pixel) costs more
 * than the filtering math itself. A BumpArena hands out monotonically
 * increasing slices of a few large blocks and recycles everything with an
 * O(1) reset() per quad. Arenas are owned per worker (one per TextureUnit),
 * so no locking is needed.
 *
 * Only trivially destructible element types are supported: reset() never
 * runs destructors.
 */

#ifndef PARGPU_COMMON_ARENA_HH
#define PARGPU_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/contract.hh"

namespace pargpu
{

/** A growable bump allocator; see the file comment. */
class BumpArena
{
  public:
    /** @param block_bytes  Granularity of the backing blocks. */
    explicit BumpArena(std::size_t block_bytes = 64 * 1024)
        : block_bytes_(block_bytes)
    {
        PARGPU_ASSERT(block_bytes_ >= 1024,
                      "arena block too small: ", block_bytes_);
    }

    /**
     * Allocate a default-constructed span of @p n elements. The span is
     * valid until the next reset().
     */
    template <typename T>
    std::span<T>
    allocSpan(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena reset() never runs destructors");
        if (n == 0)
            return {};
        T *p = static_cast<T *>(allocBytes(n * sizeof(T), alignof(T)));
        for (std::size_t i = 0; i < n; ++i)
            new (p + i) T(); // pargpu-lint: allow(raw-new)
        return {p, n};
    }

    /**
     * Allocate a span of @p n elements with NO construction: the storage
     * is uninitialized (or holds stale bytes from before the last
     * reset()). Only for trivially copyable types, and only for callers
     * that overwrite every field before reading any — the texture unit's
     * per-quad sample scratch, where value-initializing hundreds of bytes
     * per sample is measurable.
     */
    template <typename T>
    std::span<T>
    allocSpanUninit(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          std::is_trivially_destructible_v<T>,
                      "uninitialized spans need trivial lifetimes");
        if (n == 0)
            return {};
        T *p = static_cast<T *>(allocBytes(n * sizeof(T), alignof(T)));
        return {p, n};
    }

    /** Recycle every allocation; keeps the backing blocks for reuse. */
    void
    reset()
    {
        cur_block_ = 0;
        offset_ = 0;
        used_bytes_ = 0;
    }

    /** Bytes of backing storage currently reserved. */
    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Block &b : blocks_)
            total += b.size;
        return total;
    }

    /** Payload bytes handed out since the last reset() (pre-alignment). */
    std::size_t
    usedBytes() const
    {
        return used_bytes_;
    }

    /** Maximum usedBytes() reached since the last resetHighWater(). */
    std::size_t
    highWaterBytes() const
    {
        return high_water_;
    }

    /**
     * Restart high-water tracking at the current live usage. The
     * simulator calls this per frame so arena.high_water is a per-frame
     * peak — a lifetime peak would depend on which frames this
     * simulator instance happened to render (frame-parallel runs shard
     * frames across instances) and break cross-mode determinism.
     */
    void
    resetHighWater()
    {
        high_water_ = used_bytes_;
    }

    /**
     * Payload bytes handed out over the arena's lifetime; never reset, so
     * callers can difference it around a frame to get per-frame usage even
     * when the arena is reset several times inside the frame.
     */
    std::size_t
    lifetimeBytes() const
    {
        return lifetime_bytes_;
    }

    /**
     * Backing blocks allocated from the heap over the arena's lifetime.
     * Steady state is reached when this stops growing: every later
     * allocSpan*() is served from recycled blocks without touching the
     * heap (the zero-per-frame-allocation guard in tests/arena_test.cc).
     */
    std::size_t
    blockAllocs() const
    {
        return blocks_.size();
    }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    void *
    allocBytes(std::size_t bytes, std::size_t align)
    {
        PARGPU_ASSERT((align & (align - 1)) == 0,
                      "alignment must be a power of two: ", align);
        while (true) {
            if (cur_block_ < blocks_.size()) {
                Block &b = blocks_[cur_block_];
                // Align the actual address, not the block offset: the
                // backing new[] only guarantees
                // __STDCPP_DEFAULT_NEW_ALIGNMENT__, so offset math alone
                // under-aligns any stricter type (e.g. alignas(64)).
                // The address feeds only this padding computation — for
                // align <= that guarantee the padding is address-invariant,
                // and spans are value-initialized — so no result ever
                // depends on it. pargpu-lint: allow(addr-hash)
                auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
                std::size_t aligned =
                    (((base + offset_ + align - 1) & ~(align - 1)) - base);
                if (aligned + bytes <= b.size) {
                    offset_ = aligned + bytes;
                    used_bytes_ += bytes;
                    lifetime_bytes_ += bytes;
                    if (used_bytes_ > high_water_)
                        high_water_ = used_bytes_;
                    return b.data.get() + aligned;
                }
                // Block exhausted: move on (leftover bytes are recycled at
                // the next reset()).
                ++cur_block_;
                offset_ = 0;
                continue;
            }
            // No zero-fill: allocSpan() constructs what it hands out and
            // allocSpanUninit() callers write before they read, so the
            // first touch of a fresh block is the consumer's own store.
            std::size_t size = std::max(block_bytes_, bytes + align);
            blocks_.push_back(
                {std::make_unique_for_overwrite<std::byte[]>(size), size});
        }
    }

    std::size_t block_bytes_;
    std::vector<Block> blocks_;
    std::size_t cur_block_ = 0; ///< Block currently bumped into.
    std::size_t offset_ = 0;    ///< Bump offset within the current block.
    std::size_t used_bytes_ = 0;     ///< Payload bytes since last reset().
    std::size_t high_water_ = 0;     ///< Max used_bytes_ ever reached.
    std::size_t lifetime_bytes_ = 0; ///< Payload bytes, never reset.
};

} // namespace pargpu

#endif // PARGPU_COMMON_ARENA_HH
