/**
 * @file
 * Unit tests for the per-quad footprint memo and the bump arena behind
 * the texel hot path. The memo must return exactly what a fresh fetch
 * would (bit-identical filtering), and divergent footprints — different
 * mip level or corner, as produced by a quad with divergent derivatives —
 * must never alias.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.hh"
#include "texture/sampler.hh"

using namespace pargpu;

namespace
{

std::vector<RGBA8>
checker(int w, int h)
{
    std::vector<RGBA8> t;
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            std::uint8_t v = ((x ^ y) & 1) != 0 ? 255 : 0;
            t.push_back({v, static_cast<std::uint8_t>(x * 4),
                         static_cast<std::uint8_t>(y * 4), 255});
        }
    return t;
}

bool
sameColor(const Color4f &a, const Color4f &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

TEST(FootprintMemoTest, MissesWhenEmptyAndHitsAfterStore)
{
    FootprintMemo memo;
    memo.reset();
    Color4f c[4] = {{0.1f, 0.2f, 0.3f, 1.0f},
                    {0.4f, 0.5f, 0.6f, 1.0f},
                    {0.7f, 0.8f, 0.9f, 1.0f},
                    {0.2f, 0.3f, 0.4f, 1.0f}};
    Addr a[4] = {0x100, 0x104, 0x140, 0x144};
    Color4f oc[4];
    Addr oa[4];
    EXPECT_FALSE(memo.lookup(1, 4, 8, oc, oa));
    memo.store(1, 4, 8, c, a);
    ASSERT_TRUE(memo.lookup(1, 4, 8, oc, oa));
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(sameColor(oc[i], c[i])) << i;
        EXPECT_EQ(oa[i], a[i]) << i;
    }
    EXPECT_EQ(memo.lookups(), 2u);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(FootprintMemoTest, DivergentFootprintsNeverAlias)
{
    // A quad with divergent derivatives produces footprints that differ in
    // level or corner; none of them may be served from another's entry.
    FootprintMemo memo;
    memo.reset();
    Color4f c[4] = {};
    Addr a[4] = {1, 2, 3, 4};
    memo.store(2, 10, 12, c, a);
    Color4f oc[4];
    Addr oa[4];
    EXPECT_FALSE(memo.lookup(3, 10, 12, oc, oa)); // Level diverges.
    EXPECT_FALSE(memo.lookup(2, 11, 12, oc, oa)); // Corner x diverges.
    EXPECT_FALSE(memo.lookup(2, 10, 13, oc, oa)); // Corner y diverges.
    EXPECT_TRUE(memo.lookup(2, 10, 12, oc, oa));
}

TEST(FootprintMemoTest, SlotCollisionEvictsInsteadOfCorrupting)
{
    // Find two distinct keys that land in the same direct-mapped slot; the
    // second store evicts the first, and the first then misses (it must
    // not return the second key's data).
    FootprintMemo memo;
    memo.reset();
    Color4f c1[4] = {{1, 0, 0, 1}, {1, 0, 0, 1}, {1, 0, 0, 1}, {1, 0, 0, 1}};
    Color4f c2[4] = {{0, 1, 0, 1}, {0, 1, 0, 1}, {0, 1, 0, 1}, {0, 1, 0, 1}};
    Addr a1[4] = {10, 11, 12, 13};
    Addr a2[4] = {20, 21, 22, 23};
    memo.store(0, 0, 0, c1, a1);
    // Scan for a colliding second key by probing: store and check whether
    // the first key got evicted.
    Color4f oc[4];
    Addr oa[4];
    bool found = false;
    for (int x = 1; x < 4096 && !found; ++x) {
        memo.store(0, x, 0, c2, a2);
        if (!memo.lookup(0, 0, 0, oc, oa)) {
            // Evicted: same slot. The evictee misses; the evictor hits
            // with its own data.
            ASSERT_TRUE(memo.lookup(0, x, 0, oc, oa));
            EXPECT_TRUE(sameColor(oc[0], c2[0]));
            EXPECT_EQ(oa[0], a2[0]);
            found = true;
        }
    }
    EXPECT_TRUE(found) << "no slot collision in 4096 keys";
}

TEST(FootprintMemoTest, ResetClearsEntriesAndCounters)
{
    FootprintMemo memo;
    memo.reset();
    Color4f c[4] = {};
    Addr a[4] = {};
    memo.store(0, 1, 1, c, a);
    Color4f oc[4];
    Addr oa[4];
    ASSERT_TRUE(memo.lookup(0, 1, 1, oc, oa));
    memo.reset();
    EXPECT_FALSE(memo.lookup(0, 1, 1, oc, oa));
    EXPECT_EQ(memo.lookups(), 1u);
    EXPECT_EQ(memo.hits(), 0u);
}

TEST(FootprintMemoTest, AddressProbeThenColorProbeMatchesAFreshFetch)
{
    // PATU's distribution check probes address-only; a later color probe
    // of the same footprint must hit, count exactly as two color probes
    // would, and return what a fresh fetch returns.
    TextureMap tex(32, 32, checker(32, 32));
    tex.setBaseAddr(0x8000);
    Color4f want_c[4];
    Addr want_a[4];
    tex.fetchFootprint(1, 3, 5, want_c, want_a);

    FootprintMemo memo;
    memo.reset();
    const FootprintMemo::Entry &a = memo.probeAddrs(tex, 1, 3, 5);
    EXPECT_FALSE(a.colored);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.addr[i], want_a[i]) << i;
    EXPECT_EQ(memo.lookups(), 1u);
    EXPECT_EQ(memo.hits(), 0u);

    const FootprintMemo::Entry &c = memo.probe(tex, 1, 3, 5);
    EXPECT_EQ(&c, &a); // Same slot, filled in place.
    EXPECT_TRUE(c.colored);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(sameColor(c.color[i], want_c[i])) << i;
        EXPECT_EQ(c.addr[i], want_a[i]) << i;
    }
    EXPECT_EQ(memo.lookups(), 2u);
    EXPECT_EQ(memo.hits(), 1u);

    // An address-only probe of a colored entry is a plain hit.
    memo.probeAddrs(tex, 1, 3, 5);
    EXPECT_EQ(memo.lookups(), 3u);
    EXPECT_EQ(memo.hits(), 2u);
}

TEST(FootprintMemoTest, ProbeKindNeverChangesCounts)
{
    // Any mix of address-only and color probes over a key sequence —
    // collisions included — counts the lookups and hits that color
    // probes alone count, and every colored read is a fresh fetch's.
    TextureMap tex(64, 64, checker(64, 64));
    FootprintMemo mixed, colored;
    mixed.reset();
    colored.reset();
    std::uint64_t state = 12345;
    auto next = [&state](int bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<int>((state >> 33) % static_cast<unsigned>(bound));
    };
    for (int i = 0; i < 4000; ++i) {
        const int level = next(3);
        const int x0 = next(20) - 2;
        const int y0 = next(20) - 2;
        colored.probe(tex, level, x0, y0);
        if (next(2) == 0) {
            mixed.probeAddrs(tex, level, x0, y0);
        } else {
            const FootprintMemo::Entry &e = mixed.probe(tex, level, x0, y0);
            Color4f want_c[4];
            Addr want_a[4];
            tex.fetchFootprint(level, x0, y0, want_c, want_a);
            for (int k = 0; k < 4; ++k) {
                ASSERT_TRUE(sameColor(e.color[k], want_c[k])) << i;
                ASSERT_EQ(e.addr[k], want_a[k]) << i;
            }
        }
        ASSERT_EQ(mixed.lookups(), colored.lookups()) << i;
        ASSERT_EQ(mixed.hits(), colored.hits()) << i;
    }
    EXPECT_GT(colored.hits(), 0u);
    EXPECT_LT(colored.hits(), colored.lookups());
}

TEST(FootprintMemoTest, PeekColorsCountsNothingAndNeverEvicts)
{
    TextureMap tex(32, 32, checker(32, 32));
    Color4f want[4];
    Addr unused[4];
    Color4f scratch[4];
    FootprintMemo memo;
    memo.reset();

    // Resident address-only entry: colored in place, no count.
    memo.probeAddrs(tex, 0, 7, 9);
    tex.fetchFootprint(0, 7, 9, want, unused);
    const Color4f *c = memo.peekColors(tex, 0, 7, 9, scratch);
    EXPECT_NE(c, scratch);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sameColor(c[i], want[i])) << i;
    EXPECT_EQ(memo.lookups(), 1u);
    EXPECT_EQ(memo.hits(), 0u);

    // Absent footprint: fetched into the scratch, not inserted — a later
    // probe still misses, and the resident footprint still hits.
    tex.fetchFootprint(2, 1, 2, want, unused);
    c = memo.peekColors(tex, 2, 1, 2, scratch);
    EXPECT_EQ(c, scratch);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sameColor(c[i], want[i])) << i;
    EXPECT_EQ(memo.lookups(), 1u);
    memo.probe(tex, 2, 1, 2);
    EXPECT_EQ(memo.hits(), 0u);
    memo.probe(tex, 0, 7, 9);
    EXPECT_EQ(memo.lookups(), 3u);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(FootprintMemoTest, CopyingLookupSkipsAddressOnlyEntries)
{
    // lookup() copies colors: an entry that holds none is a miss.
    TextureMap tex(32, 32, checker(32, 32));
    FootprintMemo memo;
    memo.reset();
    memo.probeAddrs(tex, 0, 4, 4);
    Color4f oc[4];
    Addr oa[4];
    EXPECT_FALSE(memo.lookup(0, 4, 4, oc, oa));
    EXPECT_EQ(memo.hits(), 0u);
    memo.probe(tex, 0, 4, 4); // Colors it.
    EXPECT_TRUE(memo.lookup(0, 4, 4, oc, oa));
}

TEST(MemoizedFilteringTest, MemoizedTrilinearIsBitIdentical)
{
    TextureMap tex(32, 32, checker(32, 32));
    TextureSampler sampler(tex);
    FootprintMemo memo;
    memo.reset();

    // Sweep uv positions and LODs; the memoized path must reproduce the
    // unmemoized sample exactly even as entries accumulate and hit.
    for (int i = 0; i < 64; ++i) {
        Vec2 uv{(i % 8) / 7.9f, (i / 8) / 7.9f};
        float lod = static_cast<float>(i % 5) * 0.6f;
        TrilinearSample plain = sampler.trilinear(uv, lod);
        TrilinearSample memoized;
        sampler.trilinearInto(uv, sampler.selectLod(lod), memoized, &memo);
        EXPECT_TRUE(sameColor(plain.color, memoized.color)) << i;
        for (int t = 0; t < 8; ++t) {
            EXPECT_EQ(plain.texels[t].addr, memoized.texels[t].addr);
            EXPECT_EQ(plain.texels[t].level, memoized.texels[t].level);
        }
    }
    EXPECT_GT(memo.hits(), 0u); // Overlapping footprints actually shared.
}

TEST(MemoizedFilteringTest, DivergentDerivativesDoNotShareFootprints)
{
    // Two pixels of a quad with wildly different derivatives select
    // different mip levels; their samples must not hit each other's memo
    // entries even when their uv corners coincide numerically.
    TextureMap tex(64, 64, checker(64, 64));
    TextureSampler sampler(tex);
    FootprintMemo memo;
    memo.reset();

    Vec2 uv{0.25f, 0.25f};
    TrilinearSample fine, coarse;
    sampler.trilinearInto(uv, sampler.selectLod(0.0f), fine, &memo);
    std::uint64_t hits_before = memo.hits();
    sampler.trilinearInto(uv, sampler.selectLod(3.0f), coarse, &memo);
    EXPECT_EQ(memo.hits(), hits_before); // Different levels: no sharing.
    EXPECT_NE(fine.texels[0].addr, coarse.texels[0].addr);
    // Each still matches its own unmemoized reference.
    TrilinearSample ref_fine = sampler.trilinear(uv, 0.0f);
    TrilinearSample ref_coarse = sampler.trilinear(uv, 3.0f);
    EXPECT_TRUE(sameColor(fine.color, ref_fine.color));
    EXPECT_TRUE(sameColor(coarse.color, ref_coarse.color));
}

TEST(BumpArenaTest, SpansAreDistinctAndZeroConstructed)
{
    BumpArena arena(1024);
    auto a = arena.allocSpan<TrilinearSample>(4);
    auto b = arena.allocSpan<TrilinearSample>(4);
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_NE(a.data(), b.data());
    for (const TrilinearSample &s : a)
        EXPECT_EQ(s.level0, 0); // Default-constructed.
    a[0].level0 = 7;
    EXPECT_EQ(b[0].level0, 0); // No overlap.
}

TEST(BumpArenaTest, ResetReusesMemoryAndOverflowGrows)
{
    BumpArena arena(1024); // Minimum block: a handful of samples.
    auto a = arena.allocSpan<TrilinearSample>(1);
    TrilinearSample *first = a.data();
    // Overflow the first block several times over: must still succeed.
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(arena.allocSpan<TrilinearSample>(1).size(), 1u);
    arena.reset();
    auto c = arena.allocSpan<TrilinearSample>(1);
    EXPECT_EQ(c.data(), first); // Bump pointer rewound to block 0.
}
