/**
 * @file
 * A small string-keyed LRU cache: the engine's in-memory result tier.
 * Not internally synchronized — the engine serializes access under its
 * own mutex.
 */
#ifndef SIPRE_SERVICE_RESULT_CACHE_HPP
#define SIPRE_SERVICE_RESULT_CACHE_HPP

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace sipre::service
{

/** LRU map keyed by canonical request key. Capacity 0 disables caching. */
template <typename Value> class LruCache
{
  public:
    explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

    /** Look up and promote to most-recently-used. */
    std::optional<Value>
    get(const std::string &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return std::nullopt;
        order_.splice(order_.begin(), order_, it->second);
        return it->second->second;
    }

    /** Insert or refresh; evicts the least-recently-used past capacity. */
    void
    put(const std::string &key, Value value)
    {
        if (capacity_ == 0)
            return;
        const auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        order_.emplace_front(key, std::move(value));
        index_.emplace(key, order_.begin());
        if (order_.size() > capacity_) {
            index_.erase(order_.back().first);
            order_.pop_back();
            ++evictions_;
        }
    }

    std::size_t size() const { return order_.size(); }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Iterate entries MRU-first (for persistence on shutdown). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[key, value] : order_)
            fn(key, value);
    }

  private:
    std::size_t capacity_;
    std::uint64_t evictions_ = 0;
    std::list<std::pair<std::string, Value>> order_;
    std::unordered_map<std::string,
                       typename std::list<std::pair<std::string, Value>>::
                           iterator>
        index_;
};

} // namespace sipre::service

#endif // SIPRE_SERVICE_RESULT_CACHE_HPP
