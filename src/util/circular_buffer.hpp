/**
 * @file
 * Fixed-capacity circular FIFO used for the FTQ, the decode queue and
 * prefetcher history.
 */
#ifndef SIPRE_UTIL_CIRCULAR_BUFFER_HPP
#define SIPRE_UTIL_CIRCULAR_BUFFER_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace sipre
{

/**
 * A bounded ring buffer with stable in-queue indexing.
 *
 * Elements are addressed by *logical position*: at(0) is the oldest
 * (head) element, at(size()-1) the youngest. Positions shift as elements
 * are popped, mirroring how an FTQ or ROB is usually described.
 */
template <typename T>
class CircularBuffer
{
  public:
    explicit CircularBuffer(std::size_t capacity)
        : slots_(capacity), capacity_(capacity)
    {
        SIPRE_ASSERT(capacity > 0, "CircularBuffer needs capacity > 0");
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == capacity_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return capacity_; }

    /** Free slots remaining. */
    std::size_t space() const { return capacity_ - count_; }

    /** Append a new youngest element. @pre !full(). */
    T &
    push(T value)
    {
        SIPRE_ASSERT(!full(), "push into a full CircularBuffer");
        const std::size_t idx = physical(count_);
        slots_[idx] = std::move(value);
        ++count_;
        return slots_[idx];
    }

    /** Construct a new youngest element in place. @pre !full(). */
    template <typename... Args>
    T &
    emplace(Args &&...args)
    {
        SIPRE_ASSERT(!full(), "emplace into a full CircularBuffer");
        const std::size_t idx = physical(count_);
        slots_[idx] = T(std::forward<Args>(args)...);
        ++count_;
        return slots_[idx];
    }

    /** Remove and return the oldest element. @pre !empty(). */
    T
    pop()
    {
        SIPRE_ASSERT(!empty(), "pop from an empty CircularBuffer");
        T value = std::move(slots_[head_]);
        head_ = physical(1);
        --count_;
        return value;
    }

    /** Oldest element. @pre !empty(). */
    T &
    front()
    {
        SIPRE_ASSERT(!empty(), "front of an empty CircularBuffer");
        return slots_[head_];
    }

    const T &
    front() const
    {
        SIPRE_ASSERT(!empty(), "front of an empty CircularBuffer");
        return slots_[head_];
    }

    /** Youngest element. @pre !empty(). */
    T &
    back()
    {
        SIPRE_ASSERT(!empty(), "back of an empty CircularBuffer");
        return slots_[physical(count_ - 1)];
    }

    /** Logical indexing: at(0) == front(). @pre pos < size(). */
    T &
    at(std::size_t pos)
    {
        SIPRE_ASSERT(pos < count_, "CircularBuffer::at out of range");
        return slots_[physical(pos)];
    }

    const T &
    at(std::size_t pos) const
    {
        SIPRE_ASSERT(pos < count_, "CircularBuffer::at out of range");
        return slots_[physical(pos)];
    }

    /** Drop the youngest n elements (used for squash). @pre n <= size(). */
    void
    truncate(std::size_t n)
    {
        SIPRE_ASSERT(n <= count_, "CircularBuffer::truncate out of range");
        count_ -= n;
    }

    /** Remove all elements. */
    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    /**
     * Slot of logical position `logical`. head_ < capacity_ and
     * logical <= capacity_, so one conditional subtract replaces the
     * modulo exactly.
     */
    std::size_t
    physical(std::size_t logical) const
    {
        const std::size_t idx = head_ + logical;
        return idx >= capacity_ ? idx - capacity_ : idx;
    }

    std::vector<T> slots_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace sipre

#endif // SIPRE_UTIL_CIRCULAR_BUFFER_HPP
