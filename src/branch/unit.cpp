#include "branch/unit.hpp"

namespace sipre
{

BranchUnit::BranchUnit(const BranchUnitConfig &config)
    : config_(config), btb_(config.btb_entries, config.btb_ways),
      direction_(makeDirectionPredictor(config.direction)),
      ras_(config.ras_depth), indirect_(config.indirect_entries)
{
}

void
BranchUnit::shiftPath(Addr target)
{
    path_ = (path_ << 6) ^ ((target >> 2) & 0xffff);
}

BranchPrediction
BranchUnit::predictAndSpeculate(const TraceInstruction &br)
{
    BranchPrediction pred;
    pred.history_before = ghr_.checkpoint();
    pred.path_before = path_;

    const auto btb_entry = btb_.lookup(br.pc);
    pred.btb_hit = btb_entry.has_value();

    if (!pred.btb_hit) {
        // The run-ahead engine does not know this PC is a branch: it
        // predicts sequential fetch. With the GHR filter enabled the
        // history stays clean; without it, the (not-taken-looking)
        // branch pollutes the history once discovered.
        pred.predicted_taken = false;
        pred.predicted_target = br.nextPc();
        if (!config_.ghr_filter_btb_miss &&
            br.cls == InstClass::kCondBranch) {
            ghr_.shift(false);
        }
        if (br.cls == InstClass::kCondBranch)
            ++stats_.cond_predictions;
        return pred;
    }

    switch (br.cls) {
      case InstClass::kCondBranch: {
        ++stats_.cond_predictions;
        pred.predicted_taken = direction_->predict(br.pc, ghr_);
        pred.predicted_target =
            pred.predicted_taken ? btb_entry->target : br.nextPc();
        ghr_.shift(pred.predicted_taken);
        break;
      }
      case InstClass::kCall:
        ras_.push(br.nextPc());
        pred.predicted_taken = true;
        pred.predicted_target = btb_entry->target;
        ghr_.shift(true);
        break;
      case InstClass::kIndirectCall: {
        ras_.push(br.nextPc());
        pred.predicted_taken = true;
        const Addr t = indirect_.predict(br.pc, path_);
        pred.predicted_target = t != kNoAddr ? t : btb_entry->target;
        ghr_.shift(true);
        break;
      }
      case InstClass::kReturn: {
        pred.predicted_taken = true;
        const Addr t = ras_.pop();
        pred.predicted_target = t != kNoAddr ? t : btb_entry->target;
        ghr_.shift(true);
        break;
      }
      case InstClass::kIndirectJump: {
        pred.predicted_taken = true;
        const Addr t = indirect_.predict(br.pc, path_);
        pred.predicted_target = t != kNoAddr ? t : btb_entry->target;
        ghr_.shift(true);
        break;
      }
      case InstClass::kDirectJump:
        pred.predicted_taken = true;
        pred.predicted_target = btb_entry->target;
        ghr_.shift(true);
        break;
      default:
        // Non-branch classes never reach the unit.
        pred.predicted_taken = false;
        pred.predicted_target = br.nextPc();
        break;
    }
    if (pred.predicted_taken)
        shiftPath(pred.predicted_target);
    return pred;
}

std::optional<BranchUnit::ShadowPrediction>
BranchUnit::shadowProbe(Addr pc)
{
    const auto entry = btb_.probe(pc);
    if (!entry)
        return std::nullopt;
    ShadowPrediction pred{true, entry->target};
    switch (entry->cls) {
      case InstClass::kCondBranch:
        pred.taken = direction_->predict(pc, ghr_);
        break;
      case InstClass::kReturn: {
        const Addr t = ras_.top();
        if (t != kNoAddr)
            pred.target = t;
        break;
      }
      case InstClass::kIndirectJump:
      case InstClass::kIndirectCall: {
        const Addr t = indirect_.predict(pc, path_);
        if (t != kNoAddr)
            pred.target = t;
        break;
      }
      default:
        break;
    }
    return pred;
}

BranchCheckpoint
BranchUnit::checkpoint() const
{
    return BranchCheckpoint{ghr_.checkpoint(), path_, ras_.checkpoint()};
}

void
BranchUnit::restore(const BranchCheckpoint &cp)
{
    ghr_.restore(cp.ghr);
    path_ = cp.path;
    ras_.restore(cp.ras);
}

BranchLightCheckpoint
BranchUnit::lightCheckpoint() const
{
    return BranchLightCheckpoint{ghr_.checkpoint(), path_,
                                 ras_.lightCheckpoint()};
}

void
BranchUnit::restore(const BranchLightCheckpoint &cp)
{
    ghr_.restore(cp.ghr);
    path_ = cp.path;
    ras_.restore(cp.ras);
}

void
BranchUnit::resolve(const TraceInstruction &br, const BranchPrediction &pred)
{
    // Direction training uses the history the prediction saw.
    if (br.cls == InstClass::kCondBranch) {
        GlobalHistory hist_at_predict;
        hist_at_predict.restore(pred.history_before);
        direction_->update(br.pc, hist_at_predict, br.taken,
                           pred.predicted_taken);
        if (pred.predicted_taken != br.taken)
            ++stats_.cond_mispredictions;
    }

    if (br.taken) {
        if (!pred.btb_hit)
            ++stats_.btb_miss_taken;
        btb_.update(br.pc, br.addr, br.cls);
        if (pred.btb_hit && pred.predicted_taken &&
            pred.predicted_target != br.addr) {
            ++stats_.target_mispredictions;
        }
    }

    if (br.isIndirect() && br.cls != InstClass::kReturn)
        indirect_.update(br.pc, pred.path_before, br.addr);
}

void
BranchUnit::replayCommitted(const TraceInstruction &br, bool btb_hit_now)
{
    const bool visible =
        btb_hit_now || !config_.ghr_filter_btb_miss || br.taken;
    if (br.cls == InstClass::kCondBranch) {
        if (visible)
            ghr_.shift(br.taken);
        if (br.taken)
            shiftPath(br.addr);
    } else if (br.taken) {
        ghr_.shift(true);
        shiftPath(br.addr);
    }
    // Re-execute speculative RAS effects of the committed path.
    if (br.cls == InstClass::kCall || br.cls == InstClass::kIndirectCall)
        ras_.push(br.nextPc());
    else if (br.cls == InstClass::kReturn)
        ras_.pop();
}

void
BranchUnit::repairHistory(const BranchCheckpoint &cp,
                          const TraceInstruction &br, bool btb_hit_now)
{
    restore(cp);
    replayCommitted(br, btb_hit_now);
}

void
BranchUnit::repairHistory(const BranchLightCheckpoint &cp,
                          const TraceInstruction &br, bool btb_hit_now)
{
    restore(cp);
    replayCommitted(br, btb_hit_now);
}

} // namespace sipre
