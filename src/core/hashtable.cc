#include "core/hashtable.hh"

#include <cmath>

#include "common/contract.hh"

namespace pargpu
{

std::vector<float>
TexelAddressTable::probabilityVector() const
{
    std::vector<float> p;
    if (inserted_ == 0)
        return p;
    float inv = 1.0f / static_cast<float>(inserted_);
    int stored = 0;
    for (int i = 0; i < valid_; ++i)
        stored += static_cast<int>(entries_[i].count);
    // Entries only accumulate via insert(), so the stored mass can never
    // exceed the inserted sample count (an overflowing ablation table
    // drops samples; it never invents them).
    PARGPU_INVARIANT(stored <= inserted_,
                     "stored=", stored, " inserted=", inserted_);
    // Samples dropped by an overflowing (ablation-sized) table must be
    // treated as distinct singleton events: assuming anything else would
    // understate the entropy and approve AF approximations the full
    // table would have rejected. This keeps undersized tables strictly
    // conservative.
    int dropped = inserted_ - stored;
    p.reserve(static_cast<std::size_t>(valid_ + dropped));
    for (int i = 0; i < valid_; ++i)
        p.push_back(static_cast<float>(entries_[i].count) * inv);
    for (int i = 0; i < dropped; ++i)
        p.push_back(inv);
    return p;
}

float
TexelAddressTable::entropyBits() const
{
    float e = 0.0f;
    if (inserted_ == 0)
        return e;
    // The body of entropyBits(const std::vector<float> &) over the terms
    // probabilityVector() would hold: each count * (1 / inserted) in
    // entry order, then one 1 / inserted per dropped sample.
    auto term = [&e](float pi) {
        // count * (1/total) can land one ulp above 1.0 when count==total.
        PARGPU_CHECK_RANGE(pi, 0.0f, 1.0f + 1e-5f, "probability mass");
        if (pi > 0.0f)
            e -= pi * std::log2(pi);
    };
    const float inv = 1.0f / static_cast<float>(inserted_);
    int stored = 0;
    for (int i = 0; i < valid_; ++i) {
        const unsigned count = entries_[static_cast<std::size_t>(i)].count;
        stored += static_cast<int>(count);
        term(static_cast<float>(count) * inv);
    }
    PARGPU_INVARIANT(stored <= inserted_,
                     "stored=", stored, " inserted=", inserted_);
    for (int i = stored; i < inserted_; ++i)
        term(inv);
    PARGPU_INVARIANT(e >= -1e-4f, "entropy must be non-negative: ", e);
    return e;
}

void
TexelAddressTable::reset()
{
    valid_ = 0;
    inserted_ = 0;
    for (Entry &e : entries_)
        e.count = 0;
}

} // namespace pargpu
