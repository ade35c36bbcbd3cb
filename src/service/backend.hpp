/**
 * @file
 * The pluggable result-backend seam in the engine's tier chain. The
 * chain is LRU → coalescer → *backend* → local workers: after every
 * cache tier misses, the engine asks the backend whether this key
 * should execute here, and if not, to resolve it remotely. The cluster
 * peer tier (src/cluster/) is the one production implementation; tests
 * plug in fakes to exercise the seam directly.
 */
#ifndef SIPRE_SERVICE_BACKEND_HPP
#define SIPRE_SERVICE_BACKEND_HPP

#include <memory>
#include <string>

#include "core/sim_result.hpp"
#include "service/request.hpp"

namespace sipre::service
{

/**
 * Resolves cache-missed requests that belong elsewhere. Implementations
 * must be thread-safe: the engine calls from concurrent submit()ers
 * with no engine lock held.
 */
class ResultBackend
{
  public:
    virtual ~ResultBackend() = default;

    /**
     * True when `key` should be simulated by this process (it owns the
     * key, or there is nowhere better to send it). False routes the
     * request through resolve() instead of the local worker pool.
     */
    virtual bool localExecution(const std::string &key) = 0;

    /**
     * Resolve `request` remotely. Returns the result, or nullptr (with
     * `error` set) when every remote candidate failed — the engine then
     * fails over to local execution, so a dead owner costs latency,
     * never a lost request.
     */
    virtual std::shared_ptr<const SimResult>
    resolve(const SimRequest &request, const std::string &key,
            std::string *error) = 0;
};

} // namespace sipre::service

#endif // SIPRE_SERVICE_BACKEND_HPP
