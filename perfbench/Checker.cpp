//===- perfbench/Checker.cpp - Output check for every edit ----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Checker.h"

#include "vm/Machine.h"

using namespace eel;
using namespace perfbench;

namespace {

/// Step budget for an edited run: generous next to any instrumentation
/// overhead, small enough that a corrupted program that loops is cut off
/// in well under a second.
uint64_t stepBudget(const Reference &Ref) {
  return 64 * Ref.Instructions + 10'000'000;
}

const char *stopName(StopReason R) {
  switch (R) {
  case StopReason::Exited:
    return "exited";
  case StopReason::StepLimit:
    return "step limit";
  case StopReason::BadInstruction:
    return "bad instruction";
  case StopReason::BadAlignment:
    return "bad alignment";
  }
  return "unknown stop";
}

/// Total size of \p File's text segments, in bytes.
uint64_t textBytes(const SxfFile &File) {
  uint64_t Bytes = 0;
  for (const SxfSegment &Seg : File.Segments)
    if (Seg.Kind == SegKind::Text)
      Bytes += Seg.Bytes.size();
  return Bytes;
}

} // namespace

Reference perfbench::runReference(const SxfFile &Original, bool WithTallies) {
  Reference Ref;
  Ref.TextBytes = textBytes(Original);
  Machine M(Original);
  if (WithTallies) {
    M.OnInst = [&Ref](Addr PC, MachWord) { ++Ref.InstTally[PC]; };
    M.OnTransfer = [&Ref](Addr PC, Addr, bool Taken) {
      ++Ref.BranchTally[{PC, Taken}];
    };
  }
  RunResult R = M.run();
  if (R.Reason != StopReason::Exited) {
    Ref.Why = std::string("original stopped: ") + stopName(R.Reason);
    return Ref;
  }
  Ref.Ok = true;
  Ref.Output = std::move(R.Output);
  Ref.ExitCode = R.ExitCode;
  Ref.Instructions = R.Instructions;
  return Ref;
}

Verdict perfbench::checkEdit(
    const std::vector<uint8_t> &EditedBytes, const Reference &Ref,
    const std::vector<Qpt2Profiler::CounterInfo> *Counters) {
  Verdict V;
  if (!Ref.Ok) {
    V.Why = Ref.Why;
    return V;
  }
  Expected<SxfFile> Edited = SxfFile::deserialize(EditedBytes);
  if (Edited.hasError()) {
    V.Why = "reload: " + Edited.error().describe();
    return V;
  }
  V.TextBytes = textBytes(Edited.value());
  Machine M(Edited.value());
  RunResult R = M.run(stepBudget(Ref));
  V.Instructions = R.Instructions;
  if (R.Reason != StopReason::Exited) {
    V.Why = std::string("edited program stopped: ") + stopName(R.Reason);
    return V;
  }
  if (R.ExitCode != Ref.ExitCode) {
    V.Why = "exit code " + std::to_string(R.ExitCode) + ", original " +
            std::to_string(Ref.ExitCode);
    return V;
  }
  if (R.Output != Ref.Output) {
    V.Why = "output differs from the original's";
    return V;
  }
  if (Counters) {
    if (Counters->empty()) {
      V.Why = "qpt2 inserted no counters";
      return V;
    }
    for (const Qpt2Profiler::CounterInfo &Info : *Counters) {
      uint64_t Got = M.memory().readWord(Info.CounterAddr);
      uint64_t Want = 0;
      if (Info.K == Qpt2Profiler::CounterInfo::Kind::Block) {
        auto It = Ref.InstTally.find(Info.BlockAnchor);
        Want = It == Ref.InstTally.end() ? 0 : It->second;
      } else if (Info.Edge == EdgeKind::Taken ||
                 Info.Edge == EdgeKind::NotTaken) {
        auto It =
            Ref.BranchTally.find({Info.TermAddr, Info.Edge == EdgeKind::Taken});
        Want = It == Ref.BranchTally.end() ? 0 : It->second;
      } else {
        continue; // Other edge kinds have no single-transfer tally.
      }
      if (Got != Want) {
        V.Why = "qpt2 counter in " + Info.Routine + " reads " +
                std::to_string(Got) + ", the original run says " +
                std::to_string(Want);
        return V;
      }
    }
  }
  V.Ok = true;
  return V;
}
