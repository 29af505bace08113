/**
 * @file
 * PATU's runtime texel-address hash table (component 2 in Fig. 14).
 *
 * A fully-associative 16-entry SRAM structure (16 == the texture unit's
 * maximum anisotropy level). Each entry stores the eight 32-bit texel
 * addresses of one trilinear sample plus a 4-bit count tag. Incoming
 * trilinear-sample address sets are compared against stored entries top to
 * bottom; a match increments the entry's count, otherwise the set is stored
 * in the first free entry. After all N samples of a pixel are inserted, the
 * count tags form the probability vector for the texel-distribution entropy
 * (Section IV-C(B)).
 */

#ifndef PARGPU_CORE_HASHTABLE_HH
#define PARGPU_CORE_HASHTABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/contract.hh"
#include "common/types.hh" // TexelAddrSet: one sample's 8 addresses.

namespace pargpu
{

/**
 * The texel-address lookup table of one PATU filtering pipeline.
 *
 * The baseline design has 16 entries (== the texture unit's maximum
 * anisotropy, so a pixel can never overflow it); smaller tables are a
 * cost-reduction ablation in which overflowing samples are dropped from
 * the distribution (conservative: can only make Txds lower and keep AF).
 */
class TexelAddressTable
{
  public:
    /** Entries == maximum anisotropy of the texture unit (Section V-A). */
    static constexpr int kEntries = 16;
    /** Count tag width in bits (saturates at 2^4 - 1 = 15 extra hits). */
    static constexpr unsigned kCountBits = 4;

    /** Storage bits per entry: 8 x 32-bit addresses + count tag. */
    static constexpr unsigned kEntryBits = 8 * 32 + kCountBits;

    /** Construct with @p entries entries (the baseline uses kEntries). */
    explicit TexelAddressTable(int entries = kEntries)
        : entries_(static_cast<std::size_t>(entries > 0 ? entries : 1))
    {
        reset();
    }

    /** Configured capacity. */
    int capacity() const { return static_cast<int>(entries_.size()); }

    /**
     * Insert one trilinear sample's address set. Inline: PATU inserts
     * every AF sample of every stage-2 pixel.
     *
     * @return true if the set matched an existing entry (a shared sample).
     */
    bool
    insert(const TexelAddrSet &addrs)
    {
        PARGPU_INVARIANT(valid_ >= 0 && valid_ <= capacity(),
                         "occupancy out of bounds: valid=", valid_,
                         " capacity=", capacity());
        ++inserted_;
        // Top-to-bottom associative compare, as in the hardware
        // description.
        for (int i = 0; i < valid_; ++i) {
            Entry &e = entries_[static_cast<std::size_t>(i)];
            if (sameAddrSet(e.addrs, addrs)) {
                // Saturating count tag (4 bits).
                constexpr unsigned max_count = (1u << kCountBits) - 1;
                if (e.count < max_count + 1)
                    ++e.count;
                PARGPU_INVARIANT(e.count <= max_count + 1,
                                 "count tag overflow: count=", e.count);
                return true;
            }
        }
        if (valid_ < capacity()) {
            Entry &e = entries_[static_cast<std::size_t>(valid_)];
            e.addrs = addrs;
            e.count = 1;
            ++valid_;
        }
        // At the baseline capacity (16 == maxAniso) the table can never
        // overflow. With a smaller ablation table an overflowing sample
        // is dropped from the distribution (conservative: lowers Txds
        // accuracy, never causes false approximation).
        return false;
    }

    /** Number of valid entries (distinct texel sets seen). */
    int distinctSets() const { return valid_; }

    /** Total samples inserted since the last reset(). */
    int samplesInserted() const { return inserted_; }

    /**
     * Probability vector over distinct texel sets: count_i / total, in
     * entry order. Empty if nothing was inserted.
     */
    std::vector<float> probabilityVector() const;

    /**
     * entropyBits(probabilityVector()) computed from the count tags in
     * place: the same terms in the same order, so the result is bit for
     * bit the same, without building the vector.
     */
    float entropyBits() const;

    /** Clear all entries for the next pixel (Section V-B). */
    void reset();

  private:
    struct Entry
    {
        TexelAddrSet addrs{};
        unsigned count = 0; ///< Samples mapped here (saturating tag + 1).
    };

    std::vector<Entry> entries_;
    int valid_ = 0;
    int inserted_ = 0;
};

} // namespace pargpu

#endif // PARGPU_CORE_HASHTABLE_HH
