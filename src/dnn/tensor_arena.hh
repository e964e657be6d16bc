/**
 * @file
 * A bump-pointer scratch arena for steady-state inference.
 *
 * The execution-plan layer (core::NetworkPlan) sizes one arena with a
 * dry planning pass at compile time; every subsequent run then serves
 * all of its scratch — im2col patches, quantized input rows, int32
 * accumulators, pooling windows, softmax doubles — from this single
 * block with zero heap allocations. Layers release their scratch by
 * rewinding to a marker, so one worst-case-layer region is ping-ponged
 * across the whole network.
 *
 * The arena is intentionally dumb: allocation is an aligned pointer
 * bump, release is a pointer rewind, and exceeding the reserved
 * capacity is a programming error (the planning pass was wrong) that
 * panics rather than falling back to the heap.
 */

#ifndef BFREE_DNN_TENSOR_ARENA_HH
#define BFREE_DNN_TENSOR_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>

namespace bfree::dnn {

/** Single-block bump allocator with marker-based release. */
class TensorArena
{
  public:
    /** Every allocation starts on a 64-byte boundary (cache line). */
    static constexpr std::size_t alignment = 64;

    /** Bytes an allocation of @p n elements of T occupies, including
     *  the padding that keeps the next allocation aligned. The planning
     *  pass and the runtime both size requests through this one
     *  function, so they can never disagree. */
    template <typename T>
    static constexpr std::size_t
    paddedBytes(std::size_t n)
    {
        const std::size_t raw = n * sizeof(T);
        return (raw + alignment - 1) / alignment * alignment;
    }

    TensorArena() = default;

    TensorArena(const TensorArena &) = delete;
    TensorArena &operator=(const TensorArena &) = delete;

    /**
     * Ensure the backing block holds at least @p bytes. Growing
     * discards the current contents and resets the bump pointer; a
     * request within the current capacity is a no-op (the steady-state
     * path). This is the only heap allocation the arena ever makes.
     */
    void reserve(std::size_t bytes);

    /**
     * Allocate @p n elements of T, aligned, zero-initialization NOT
     * performed. Panics when the reserved capacity would be exceeded.
     */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        return static_cast<T *>(allocBytes(paddedBytes<T>(n)));
    }

    /** Opaque rewind point (the current bump offset). */
    using Marker = std::size_t;

    Marker mark() const { return off; }

    /** Rewind to @p m, releasing everything allocated after it. */
    void release(Marker m);

    /** Rewind to empty; capacity and high-water mark are kept. */
    void reset() { off = 0; }

    std::size_t capacity() const { return cap; }
    std::size_t used() const { return off; }

    /** Largest offset ever bumped to since construction. */
    std::size_t highWater() const { return high; }

    /**
     * Restart the high-water mark at the current bump offset, so the
     * next highWater() reading reflects only allocations made after
     * this call. Lets an executor that runs a smaller plan after a
     * larger one measure that plan's own peak instead of inheriting
     * the old plan's.
     */
    void resetHighWater() { high = off; }

    /** Arena allocations served so far (not heap allocations). */
    std::uint64_t allocCount() const { return count; }

  private:
    void *allocBytes(std::size_t bytes);

    std::unique_ptr<std::byte[]> block;
    std::size_t cap = 0;
    std::size_t off = 0;
    std::size_t high = 0;
    std::uint64_t count = 0;
};

} // namespace bfree::dnn

#endif // BFREE_DNN_TENSOR_ARENA_HH
