#include "frontend/frontend.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hpp"

namespace sipre
{

namespace
{

constexpr Addr
lineOf(Addr addr)
{
    return addr & ~Addr{63};
}

/** Is the branch's target known by the time it is decoded? */
bool
targetKnownAtDecode(const TraceInstruction &br)
{
    switch (br.cls) {
      case InstClass::kCondBranch:
      case InstClass::kDirectJump:
      case InstClass::kCall:
      case InstClass::kReturn: // the RAS supplies the target
        return true;
      default:
        return false;
    }
}

} // namespace

DecoupledFrontEnd::DecoupledFrontEnd(const FrontendConfig &config,
                                     const Trace &trace,
                                     MemoryHierarchy &memory,
                                     DecodeQueue &decode_queue)
    : config_(config), trace_(trace), memory_(memory),
      decode_queue_(decode_queue), unit_(config.branch),
      ftq_(config.ftq_entries)
{
    SIPRE_ASSERT(config_.ftq_entries >= 1, "FTQ needs at least one entry");
    SIPRE_ASSERT(config_.max_block_instrs >= 1, "block cap must be >= 1");
    if (config_.itlb)
        itlb_ = std::make_unique<Tlb>(config_.itlb_config);
    // A shadow walk emits at most two lines per block, so this bound
    // makes the wrong-path scratch allocation-free from the first stall.
    wrong_path_lines_.reserve(
        2 * std::min<std::size_t>(config_.ftq_entries,
                                  config_.wrong_path_depth) +
        2);
    if (const char *cc = std::getenv("SIPRE_FRONTEND_CROSSCHECK"))
        crosscheck_ = cc[0] != '\0' && !(cc[0] == '0' && cc[1] == '\0');
}

void
DecoupledFrontEnd::tick(Cycle now)
{
    drainCompletions(now);
    deliverToDecode(now);
    allocateBlocks(now);
    runAheadWalk(now);
    issueLineFetches(now);
    issueWrongPathFetches(now);
    classifyCycle(now);
    if (crosscheck_)
        crosscheckCounters();
}

void
DecoupledFrontEnd::crosscheckCounters() const
{
    std::size_t unready = 0, done_uncounted = 0;
    std::size_t not_issued = 0, tlb_waiting = 0;
    for (std::size_t pos = 0; pos < ftq_.size(); ++pos) {
        const FtqEntry &entry = ftq_.at(pos);
        if (!entry.fetchDone())
            ++unready;
        else if (!entry.counted_waiting)
            ++done_uncounted;
        for (std::uint8_t i = 0; i < entry.num_lines; ++i) {
            if (entry.line_state[i] == LineState::kNotIssued)
                ++not_issued;
            else if (entry.line_state[i] == LineState::kWaitingTlb)
                ++tlb_waiting;
        }
    }
    SIPRE_ASSERT(unready == unready_entries_,
                 "unready_entries_ diverged from the FTQ scan");
    SIPRE_ASSERT(done_uncounted == done_uncounted_,
                 "done_uncounted_ diverged from the FTQ scan");
    SIPRE_ASSERT(not_issued == not_issued_lines_,
                 "not_issued_lines_ diverged from the FTQ scan");
    SIPRE_ASSERT(tlb_waiting == tlb_waiting_lines_,
                 "tlb_waiting_lines_ diverged from the FTQ scan");
}

Cycle
DecoupledFrontEnd::nextEventCycle(Cycle now) const
{
    Cycle next = kNoCycle;

    if (!ftq_.empty() && !decode_queue_.full()) {
        const FtqEntry &head = ftq_.front();
        // Deliverable instructions at the head, or a fresh head whose
        // promotion bookkeeping (became_head_cycle, the Fig. 11 partial
        // counter) is still pending: deliverToDecode acts next cycle.
        if (head.fetchDone() || head.became_head_cycle == kNoCycle)
            return now + 1;
    }

    if (!ftq_.full() && stall_ == StallReason::kNone &&
        fetch_index_ < trace_.size()) {
        return now + 1; // allocateBlocks makes progress every cycle
    }

    // An unissued line retries every cycle (port backpressure implies a
    // non-empty L1I queue, which reports on its own).
    if (not_issued_lines_ > 0)
        return now + 1;
    if (tlb_waiting_lines_ > 0) {
        for (std::size_t pos = 0; pos < ftq_.size(); ++pos) {
            const FtqEntry &entry = ftq_.at(pos);
            for (std::uint8_t i = 0; i < entry.num_lines; ++i) {
                if (entry.line_state[i] == LineState::kWaitingTlb) {
                    next = std::min(
                        next, std::max(now + 1, entry.issue_ready[i]));
                }
            }
        }
    }

    if (stall_ != StallReason::kNone && config_.wrong_path_fetch &&
        wrong_path_next_ < wrong_path_lines_.size()) {
        return now + 1; // shadow-walk drain continues
    }

    // The observer run-ahead walk advances state every tick it can
    // progress. A blocked walk re-probes with frozen predictor state
    // (shadowProbe is side-effect-free), so it provably cannot change
    // anything until a state-mutating event — which forces a tick of
    // its own — and contributes no event here.
    if (walkCanProgress())
        return now + 1;
    return next;
}

bool
DecoupledFrontEnd::walkCanProgress() const
{
    if (observer_ == nullptr || stall_ != StallReason::kNone ||
        walk_blocked_) {
        return false;
    }
    const std::uint64_t start = std::max(observe_index_, fetch_index_);
    if (start >= trace_.size())
        return false;
    const std::uint64_t limit =
        fetch_index_ + std::uint64_t{observer_lookahead_blocks_} *
                           config_.max_block_instrs;
    return start < limit;
}

void
DecoupledFrontEnd::runAheadWalk(Cycle now)
{
    // Walk the region a deeper FTQ would cover: up to lookahead blocks
    // past the fetch point, validated at every branch against what the
    // prediction structures would actually predict. The trace is the
    // committed path, so a branch the predictor agrees on keeps the
    // walk on-path; the first disagreement is where real fetch-ahead
    // would diverge, and the walk blocks there until predictor state
    // changes (allocation, resolve, or stall repair re-probes it).
    if (observer_ == nullptr || stall_ != StallReason::kNone)
        return;
    if (observe_index_ < fetch_index_)
        observe_index_ = fetch_index_;
    if (observe_index_ >= trace_.size())
        return;
    // A blocked walk re-probes its branch: predictor state may have
    // mutated earlier this tick (allocation, resolve, stall repair).
    if (walk_blocked_)
        walk_blocked_ = !probeAgreesAt(observe_index_);
    if (walk_blocked_)
        return;
    const std::uint64_t limit =
        fetch_index_ + std::uint64_t{observer_lookahead_blocks_} *
                           config_.max_block_instrs;
    auto report = [this, now](Addr line) {
        if (line != observer_last_line_) {
            observer_last_line_ = line;
            observer_->onUpcomingLine(line, now);
        }
    };
    for (std::uint32_t b = 0; b < observer_blocks_per_cycle_; ++b) {
        if (observe_index_ >= trace_.size() || observe_index_ >= limit)
            return;
        for (std::uint32_t k = 0; k < config_.max_block_instrs; ++k) {
            if (observe_index_ >= trace_.size() ||
                observe_index_ >= limit) {
                return;
            }
            const TraceInstruction &inst = trace_[observe_index_];
            report(lineOf(inst.pc));
            report(lineOf(inst.pc + inst.size - 1));
            if (inst.isBranch()) {
                if (!probeAgreesAt(observe_index_)) {
                    walk_blocked_ = true;
                    return;
                }
                ++observe_index_;
                break; // a block ends at its branch
            }
            ++observe_index_;
        }
    }
}

bool
DecoupledFrontEnd::probeAgreesAt(std::uint64_t index)
{
    const TraceInstruction &inst = trace_[index];
    if (!inst.isBranch())
        return true;
    const auto pred = unit_.shadowProbe(inst.pc);
    if (!pred.has_value())
        return !inst.taken; // BTB miss: fetch-ahead falls through
    if (pred->taken != inst.taken)
        return false;
    return !inst.taken || pred->target == inst.addr;
}

void
DecoupledFrontEnd::accountSkippedCycles(Cycle count)
{
    if (count == 0)
        return;
    if (ftq_.empty()) {
        stats_.ftq_empty_cycles += count;
        if (timeline_) {
            timeline_->record(stall_ != StallReason::kNone
                                  ? FtqScenario::kRedirect
                                  : FtqScenario::kEmpty,
                              count);
        }
        return;
    }
    // Mirrors classifyCycle() on a frozen FTQ: no entry changes fetch
    // state during a skipped span, so the per-entry waiting flags were
    // already latched by the last real tick and only the per-cycle
    // counters advance.
    if (ftq_.front().fetchDone()) {
        stats_.scenario1_cycles += count;
        if (timeline_)
            timeline_->record(FtqScenario::kShootThrough, count);
        return;
    }
    stats_.head_stall_cycles += count;
    // The head is not fetch-done, so it is one of the unready entries;
    // any second unready entry is a scenario-3 shadow stall.
    const bool any_other_unready = unready_entries_ > 1;
    if (any_other_unready)
        stats_.scenario3_cycles += count;
    else
        stats_.scenario2_cycles += count;
    if (timeline_) {
        timeline_->record(any_other_unready ? FtqScenario::kShadowStall
                                            : FtqScenario::kStallingHead,
                          count);
    }
}

void
DecoupledFrontEnd::issueWrongPathFetches(Cycle now)
{
    if (stall_ == StallReason::kNone || !config_.wrong_path_fetch)
        return;
    // Drain the shadow walk one line per cycle: the wrong path shares
    // the FDP's fetch engine, it does not get extra bandwidth.
    if (wrong_path_next_ >= wrong_path_lines_.size() ||
        !memory_.ifetchCanAccept()) {
        return;
    }
    memory_.issueIPrefetch(wrong_path_lines_[wrong_path_next_++], now);
    ++stats_.wrong_path_prefetches;
}

void
DecoupledFrontEnd::shadowWalk(Addr start_pc, std::size_t max_blocks)
{
    // Follow the *predicted* path from start_pc using only state the
    // front-end actually has (BTB, direction predictor, RAS top): this
    // is what the machine would fetch while it does not yet know the
    // prediction was wrong. Instructions are probed at 4-byte slots, as
    // in the fixed-width ISA the traces model.
    wrong_path_lines_.clear();
    wrong_path_next_ = 0;
    Addr pc = start_pc;
    for (std::size_t b = 0; b < max_blocks; ++b) {
        const Addr line = pc & ~Addr{63};
        if (wrong_path_lines_.empty() || wrong_path_lines_.back() != line)
            wrong_path_lines_.push_back(line);
        Addr next = pc + Addr{config_.max_block_instrs} * 4;
        Addr last_byte = next - 1;
        for (std::uint32_t k = 0; k < config_.max_block_instrs; ++k) {
            const Addr cur = pc + Addr{k} * 4;
            const auto pred = unit_.shadowProbe(cur);
            if (pred.has_value()) {
                next = pred->taken ? pred->target : cur + 4;
                last_byte = cur + 3; // block ends at the branch
                break;
            }
        }
        const Addr end_line = last_byte & ~Addr{63};
        if (end_line != line && wrong_path_lines_.back() != end_line)
            wrong_path_lines_.push_back(end_line);
        pc = next;
    }
}

void
DecoupledFrontEnd::drainCompletions(Cycle now)
{
    auto &completed = memory_.ifetchCompleted();
    for (const MemRequest &req : completed) {
        inflight_lines_.erase(req.line_addr);
        for (std::size_t pos = 0; pos < ftq_.size(); ++pos) {
            FtqEntry &entry = ftq_.at(pos);
            bool touched = false;
            for (std::uint8_t i = 0; i < entry.num_lines; ++i) {
                if (entry.lines[i] == req.line_addr &&
                    entry.line_state[i] == LineState::kInFlight) {
                    entry.line_state[i] = LineState::kReady;
                    touched = true;
                }
            }
            if (touched && entry.fetchDone() &&
                entry.fetch_complete_cycle == kNoCycle) {
                // The unique became-fetch-done transition: line states
                // only ever move towards kReady, so this fires exactly
                // once per entry.
                --unready_entries_;
                ++done_uncounted_;
                entry.fetch_complete_cycle = now;
                const double latency =
                    static_cast<double>(now - entry.alloc_cycle);
                if (pos == 0 || entry.became_head_cycle != kNoCycle) {
                    stats_.head_fetch_latency.add(latency);
                    stats_.head_latency_hist.add(
                        static_cast<std::uint64_t>(latency));
                } else {
                    stats_.nonhead_fetch_latency.add(latency);
                    stats_.nonhead_latency_hist.add(
                        static_cast<std::uint64_t>(latency));
                }
                firePredecode(entry, now);
            }
        }
    }
    completed.clear();
}

void
DecoupledFrontEnd::firePredecode(const FtqEntry &entry, Cycle now)
{
    // The pre-decoder sees the fetched bytes: software prefetches fire
    // here, and (with PFC) a BTB-missed taken branch is corrected here.
    // A software-prefetch target may encode an I-SPY-style coalesced
    // range in its low bits: line-aligned address | (lines - 1).
    auto fire = [this, now](Addr encoded_target) {
        const Addr line = encoded_target & ~Addr{63};
        const Addr lines = (encoded_target & Addr{63}) + 1;
        for (Addr k = 0; k < lines; ++k)
            memory_.issueIPrefetch(line + k * 64, now);
        ++stats_.sw_prefetches_triggered;
    };
    for (std::uint64_t i = entry.first_index;
         i < entry.first_index + entry.count; ++i) {
        const TraceInstruction &inst = trace_[i];
        if (inst.isSwPrefetch())
            fire(inst.addr);
        if (triggers_ != nullptr) {
            auto it = triggers_->find(inst.pc);
            if (it != triggers_->end()) {
                for (Addr target : it->second)
                    fire(target);
            }
        }
    }

    if (config_.pfc && stall_ == StallReason::kBtbMissTaken &&
        entry.ends_in_branch &&
        entry.branch_index == stall_branch_index_ &&
        targetKnownAtDecode(trace_[entry.branch_index])) {
        ++stats_.pfc_resumes;
        resumeFromStall(now);
    }
}

void
DecoupledFrontEnd::resumeFromStall(Cycle now)
{
    SIPRE_ASSERT(stall_ != StallReason::kNone, "resume without a stall");
    PendingBranch *pending = pending_branches_.find(stall_branch_index_);
    SIPRE_ASSERT(pending != nullptr,
                 "stalling branch lost its pending record");
    const TraceInstruction &br = trace_[stall_branch_index_];

    unit_.repairHistory(pending->checkpoint, br, /*btb_hit_now=*/true);
    // Make the branch visible to the BTB immediately so tight loops
    // around the same branch hit on re-encounter.
    if (br.taken)
        unit_.btb().update(br.pc, br.addr, br.cls);

    if (stall_ == StallReason::kMispredict)
        stats_.stall_cycles_mispredict += now - stall_begin_;
    else
        stats_.stall_cycles_btb_miss += now - stall_begin_;
    stall_ = StallReason::kNone;
    wrong_path_lines_.clear();
    wrong_path_next_ = 0;
    // Restart the observer run-ahead walk at the corrected fetch point.
    observe_index_ = fetch_index_;
    walk_blocked_ = false;
    observer_last_line_ = kNoAddr;
}

void
DecoupledFrontEnd::deliverToDecode(Cycle now)
{
    std::uint32_t budget = config_.fetch_width;
    while (budget > 0 && !ftq_.empty() && !decode_queue_.full()) {
        FtqEntry &head = ftq_.front();
        if (head.became_head_cycle == kNoCycle) {
            head.became_head_cycle = now;
            if (!head.fetchDone() && !head.counted_partial) {
                // Scenario 3 signature: promoted while still fetching.
                head.counted_partial = true;
                ++stats_.partial_head_events;
            }
        }
        if (!head.fetchDone())
            break;

        while (budget > 0 && !decode_queue_.full() &&
               head.delivered < head.count) {
            DecodedUop uop;
            uop.trace_index = head.first_index + head.delivered;
            uop.ready_at = now + config_.decode_latency;
            decode_queue_.push(uop);
            ++head.delivered;
            --budget;
            ++stats_.instructions_delivered;
        }
        delivered_index_ = head.first_index + head.delivered;
        if (head.fullyDelivered()) {
            // Popped entries are always fetch-done; one that was never
            // swept by the classify scan leaves the done-uncounted set.
            if (!head.counted_waiting)
                --done_uncounted_;
            ftq_.pop();
        } else {
            break;
        }
    }
}

void
DecoupledFrontEnd::allocateBlocks(Cycle now)
{
    for (std::uint32_t n = 0; n < config_.blocks_per_cycle; ++n) {
        if (ftq_.full() || stall_ != StallReason::kNone ||
            fetch_index_ >= trace_.size()) {
            return;
        }

        FtqEntry entry;
        entry.first_index = fetch_index_;
        entry.start_pc = trace_[fetch_index_].pc;
        entry.alloc_cycle = now;

        Addr last_byte = entry.start_pc;
        while (fetch_index_ < trace_.size() &&
               entry.count < config_.max_block_instrs) {
            const TraceInstruction &inst = trace_[fetch_index_];
            ++entry.count;
            ++fetch_index_;
            entry.end_pc = inst.pc;
            last_byte = inst.pc + inst.size - 1;

            if (inst.isBranch()) {
                entry.ends_in_branch = true;
                entry.branch_index = fetch_index_ - 1;

                PendingBranch pending;
                pending.checkpoint = unit_.lightCheckpoint();
                pending.pred = unit_.predictAndSpeculate(inst);

                const bool actual_taken = inst.taken;
                const Addr actual_target =
                    actual_taken ? inst.addr : inst.nextPc();
                bool wrong =
                    pending.pred.predicted_taken != actual_taken ||
                    (actual_taken &&
                     pending.pred.predicted_target != actual_target);
                if (wrong && config_.oracle_bp) {
                    // Limit-study mode: follow the committed path with
                    // no stall, but keep speculative state consistent
                    // with that path.
                    unit_.repairHistory(pending.checkpoint, inst,
                                        pending.pred.btb_hit);
                    if (inst.taken)
                        unit_.btb().update(inst.pc, inst.addr,
                                           inst.cls);
                    wrong = false;
                }
                if (wrong) {
                    pending.stalling = true;
                    if (!pending.pred.btb_hit && actual_taken) {
                        stall_ = StallReason::kBtbMissTaken;
                        ++stats_.btb_miss_stalls;
                    } else {
                        stall_ = StallReason::kMispredict;
                        ++stats_.mispredict_stalls;
                    }
                    stall_branch_index_ = entry.branch_index;
                    stall_begin_ = now;
                    // Fetch-ahead redirects: run-ahead lines reported
                    // beyond this branch are no longer on the machine's
                    // predicted path, so the observer drops what it has
                    // not issued yet.
                    if (observer_ != nullptr)
                        observer_->onRedirect(now);
                    // The hardware keeps fetching down the predicted
                    // (wrong) path until the branch resolves; walk it
                    // with the predictors, bounded by the FTQ space
                    // that remains for wrong-path blocks.
                    if (config_.wrong_path_fetch) {
                        const Addr wrong_pc =
                            pending.pred.predicted_taken
                                ? pending.pred.predicted_target
                                : inst.nextPc();
                        shadowWalk(wrong_pc,
                                   std::min<std::size_t>(
                                       config_.ftq_entries,
                                       config_.wrong_path_depth));
                    }
                }
                pending_branches_.insert(entry.branch_index,
                                         std::move(pending));
                break;
            }
        }

        entry.lines[0] = lineOf(entry.start_pc);
        const Addr end_line = lineOf(last_byte);
        entry.num_lines = 1;
        if (end_line != entry.lines[0]) {
            entry.lines[1] = end_line;
            entry.num_lines = 2;
        }

        ftq_.push(entry);
        // Fresh entries start with every line kNotIssued, so they are
        // never fetch-done on arrival.
        ++unready_entries_;
        not_issued_lines_ += entry.num_lines;
        ++stats_.blocks_allocated;
    }
}

void
DecoupledFrontEnd::issueLineFetches(Cycle now)
{
    // Nothing to issue and no TLB walk to re-check: skip the FTQ scan.
    if (not_issued_lines_ == 0 && tlb_waiting_lines_ == 0)
        return;
    for (std::size_t pos = 0; pos < ftq_.size(); ++pos) {
        FtqEntry &entry = ftq_.at(pos);
        for (std::uint8_t i = 0; i < entry.num_lines; ++i) {
            if (entry.line_state[i] == LineState::kNotIssued &&
                itlb_ != nullptr) {
                const Cycle walk = itlb_->lookup(entry.lines[i]);
                if (walk > 0) {
                    entry.line_state[i] = LineState::kWaitingTlb;
                    entry.issue_ready[i] = now + walk;
                    --not_issued_lines_;
                    ++tlb_waiting_lines_;
                    ++stats_.itlb_walks;
                    continue;
                }
            }
            if (entry.line_state[i] == LineState::kWaitingTlb) {
                if (entry.issue_ready[i] > now)
                    continue;
                entry.line_state[i] = LineState::kNotIssued;
                --tlb_waiting_lines_;
                ++not_issued_lines_;
            }
            if (entry.line_state[i] != LineState::kNotIssued)
                continue;
            const Addr line = entry.lines[i];
            if (std::uint32_t *refs = inflight_lines_.find(line)) {
                // Another FTQ entry already requested this line: merge.
                entry.line_state[i] = LineState::kInFlight;
                --not_issued_lines_;
                ++*refs;
                ++stats_.l1i_fetches_merged;
                continue;
            }
            if (!memory_.ifetchCanAccept())
                return; // port backpressure: retry next cycle
            memory_.issueIFetch(line, now);
            inflight_lines_.insert(line, 1);
            entry.line_state[i] = LineState::kInFlight;
            --not_issued_lines_;
            ++stats_.l1i_fetches_issued;
        }
    }
}

void
DecoupledFrontEnd::classifyCycle(Cycle now)
{
    (void)now;
    if (ftq_.empty()) {
        ++stats_.ftq_empty_cycles;
        if (timeline_) {
            timeline_->record(stall_ != StallReason::kNone
                                  ? FtqScenario::kRedirect
                                  : FtqScenario::kEmpty,
                              1);
        }
        return;
    }

    const FtqEntry &head = ftq_.front();
    if (head.fetchDone()) {
        ++stats_.scenario1_cycles;
        if (timeline_)
            timeline_->record(FtqScenario::kShootThrough, 1);
        return;
    }

    ++stats_.head_stall_cycles;
    // The head is unready here, so every done-but-uncounted entry sits
    // at position >= 1: sweep them into the Fig. 10 event count. The
    // sweep only runs on cycles that follow a new completion, which
    // makes the reference model's every-cycle scan amortized O(1).
    if (done_uncounted_ > 0) {
        for (std::size_t pos = 1; pos < ftq_.size(); ++pos) {
            FtqEntry &entry = ftq_.at(pos);
            if (entry.fetchDone() && !entry.counted_waiting) {
                entry.counted_waiting = true;
                ++stats_.waiting_entry_events;
            }
        }
        done_uncounted_ = 0;
    }
    const bool any_other_unready = unready_entries_ > 1;
    if (any_other_unready)
        ++stats_.scenario3_cycles;
    else
        ++stats_.scenario2_cycles;
    if (timeline_) {
        timeline_->record(any_other_unready ? FtqScenario::kShadowStall
                                            : FtqScenario::kStallingHead,
                          1);
    }
}

void
DecoupledFrontEnd::onBranchDecoded(std::uint64_t trace_index, Cycle now)
{
    if (config_.pfc)
        return; // PFC already corrected at pre-decode
    if (stall_ == StallReason::kBtbMissTaken &&
        stall_branch_index_ == trace_index &&
        targetKnownAtDecode(trace_[trace_index])) {
        resumeFromStall(now);
    }
}

void
DecoupledFrontEnd::onBranchExecuted(std::uint64_t trace_index, Cycle now)
{
    PendingBranch *pending = pending_branches_.find(trace_index);
    if (pending == nullptr)
        return;

    const TraceInstruction &br = trace_[trace_index];
    unit_.resolve(br, pending->pred);

    if (stall_ != StallReason::kNone &&
        stall_branch_index_ == trace_index) {
        resumeFromStall(now);
    }
    pending_branches_.erase(trace_index);
}

} // namespace sipre
