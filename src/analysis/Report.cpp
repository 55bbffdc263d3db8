//===- analysis/Report.cpp - Machine-readable run reports ----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"

#include "support/Json.h"

#include <algorithm>

using namespace eel;

namespace {

/// Merges one completed span chain into the aggregate tree: walks/creates
/// the node for each name on the path from root.
PhaseNode &nodeFor(std::vector<PhaseNode> &Level, const char *Name) {
  for (PhaseNode &N : Level)
    if (N.Name == Name)
      return N;
  Level.emplace_back();
  Level.back().Name = Name;
  return Level.back();
}

} // namespace

std::vector<PhaseNode>
eel::buildPhaseTree(const std::vector<TraceEvent> &Events) {
  std::vector<PhaseNode> Roots;

  // Group by thread: containment only means nesting within one thread.
  std::map<uint32_t, std::vector<const TraceEvent *>> ByTid;
  for (const TraceEvent &Ev : Events)
    ByTid[Ev.Tid].push_back(&Ev);

  for (auto &[Tid, Spans] : ByTid) {
    (void)Tid;
    // Start ascending; at equal start, longer span first (it encloses);
    // at equal start and duration (zero-length nests), higher sequence
    // first — sinks record at completion, so the parent finished later.
    std::sort(Spans.begin(), Spans.end(),
              [](const TraceEvent *A, const TraceEvent *B) {
                if (A->StartNs != B->StartNs)
                  return A->StartNs < B->StartNs;
                uint64_t DA = A->EndNs - A->StartNs;
                uint64_t DB = B->EndNs - B->StartNs;
                if (DA != DB)
                  return DA > DB;
                return A->Seq > B->Seq;
              });

    // Stack of open ancestors; a span nests under the nearest ancestor
    // whose interval contains it.
    std::vector<const TraceEvent *> Stack;
    std::vector<PhaseNode *> NodeStack;
    for (const TraceEvent *Ev : Spans) {
      while (!Stack.empty() &&
             !(Ev->StartNs >= Stack.back()->StartNs &&
               Ev->EndNs <= Stack.back()->EndNs)) {
        Stack.pop_back();
        NodeStack.pop_back();
      }
      std::vector<PhaseNode> &Level =
          NodeStack.empty() ? Roots : NodeStack.back()->Children;
      PhaseNode &N = nodeFor(Level, Ev->Name ? Ev->Name : "?");
      N.TotalNs += Ev->EndNs - Ev->StartNs;
      N.Count += 1;
      Stack.push_back(Ev);
      NodeStack.push_back(&N);
    }
  }

  // Deterministic presentation: sort siblings by name at every level. The
  // timing *within* one thread already aggregated per name, so ordering is
  // pure presentation.
  struct Sorter {
    static void sortLevel(std::vector<PhaseNode> &Level) {
      std::sort(Level.begin(), Level.end(),
                [](const PhaseNode &A, const PhaseNode &B) {
                  return A.Name < B.Name;
                });
      for (PhaseNode &N : Level)
        sortLevel(N.Children);
    }
  };
  Sorter::sortLevel(Roots);
  return Roots;
}

std::string eel::canonicalOptionsString(const Executable::Options &Opts) {
  // Field order is declaration order in Executable::Options; adding a
  // field there without extending this string silently aliases digests,
  // so keep the two in lockstep.
  std::string S;
  auto Flag = [&S](const char *Key, bool V) {
    S += Key;
    S += V ? "=1;" : "=0;";
  };
  Flag("runtime_translation", Opts.EnableRuntimeTranslation);
  Flag("disable_slicing", Opts.DisableSlicing);
  Flag("disable_delay_folding", Opts.DisableDelayFolding);
  S += "threads=" + std::to_string(Opts.Threads) + ";";
  Flag("verify", Opts.Verify);
  Flag("no_symbols", Opts.NoSymbols);
  return S;
}

void RunReport::addInput(const std::string &Path, uint64_t Hash,
                         uint64_t SizeBytes) {
  Inputs.push_back({Path, Hash, SizeBytes});
}

void RunReport::setProvenance(uint64_t ImageHash, uint64_t ToolDigest,
                              uint64_t OptsDigest) {
  Prov = {ImageHash, ToolDigest, OptsDigest, /*Set=*/true};
}

void RunReport::addOption(const std::string &Key, const std::string &Value) {
  Options.emplace_back(Key, Value);
}

void RunReport::capture(const MetricsSnapshot &Snap) {
  Counters = Snap.Counters;
  Histograms = Snap.Histograms;
  Phases = buildPhaseTree(Snap.Spans);
  DroppedSpans = Snap.DroppedSpans;
  HasPhases = true;
}

void RunReport::addCounters(
    const std::vector<std::pair<std::string, uint64_t>> &Extra) {
  Counters.insert(Counters.end(), Extra.begin(), Extra.end());
  std::sort(Counters.begin(), Counters.end());
}

void RunReport::captureDiagnostics(const DiagnosticReport &Report) {
  for (const Diagnostic &D : Report.diagnostics())
    Diagnostics.push_back(D);
  ChecksRun += Report.checksRun();
}

namespace {

void writePhase(JsonWriter &W, const PhaseNode &N) {
  W.beginObject();
  W.key("name");
  W.value(N.Name);
  W.key("total_us");
  W.value(static_cast<double>(N.TotalNs) / 1000.0);
  W.key("count");
  W.value(N.Count);
  if (!N.Children.empty()) {
    W.key("children");
    W.beginArray();
    for (const PhaseNode &C : N.Children)
      writePhase(W, C);
    W.endArray();
  }
  W.endObject();
}

void writeDiagnostic(JsonWriter &W, const Diagnostic &D) {
  W.beginObject();
  W.key("pass");
  W.value(std::string(verifyPassName(D.Pass)));
  W.key("severity");
  W.value(std::string(diagSeverityName(D.Severity)));
  if (!D.Routine.empty()) {
    W.key("routine");
    W.value(D.Routine);
  }
  if (D.Block >= 0) {
    W.key("block");
    W.value(static_cast<int64_t>(D.Block));
  }
  if (D.HasAddress) {
    W.key("address");
    W.valueHex(D.Address);
  }
  W.key("message");
  W.value(D.Message);
  W.endObject();
}

} // namespace

std::string RunReport::renderJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("eel-report/1");
  W.key("tool");
  W.value(Tool);

  W.key("inputs");
  W.beginArray();
  for (const Input &In : Inputs) {
    W.beginObject();
    W.key("path");
    W.value(In.Path);
    W.key("fnv1a64");
    W.valueHex(In.Hash);
    W.key("size_bytes");
    W.value(In.SizeBytes);
    W.endObject();
  }
  W.endArray();

  if (Prov.Set) {
    W.key("provenance");
    W.beginObject();
    W.key("image_fnv1a64");
    W.valueHex(Prov.ImageHash);
    W.key("tool_digest");
    W.valueHex(Prov.ToolDigest);
    W.key("options_digest");
    W.valueHex(Prov.OptsDigest);
    W.key("combined");
    W.valueHex(provenanceKey(Prov.ImageHash, Prov.ToolDigest, Prov.OptsDigest));
    W.endObject();
  }

  W.key("options");
  W.beginObject();
  for (const auto &[Key, Value] : Options) {
    W.key(Key);
    W.value(Value);
  }
  W.endObject();

  if (HasPhases) {
    W.key("phases");
    W.beginArray();
    for (const PhaseNode &N : Phases)
      writePhase(W, N);
    W.endArray();
    W.key("dropped_spans");
    W.value(DroppedSpans);
  }

  W.key("counters");
  W.beginObject();
  for (const auto &[Name, Value] : Counters) {
    W.key(Name);
    W.value(Value);
  }
  W.endObject();

  W.key("histograms");
  W.valueRaw(metricsJson(Histograms));

  W.key("diagnostics");
  W.beginArray();
  for (const Diagnostic &D : Diagnostics)
    writeDiagnostic(W, D);
  W.endArray();
  W.key("checks_run");
  W.value(static_cast<uint64_t>(ChecksRun));
  W.key("error_count");
  W.value(static_cast<uint64_t>(
      std::count_if(Diagnostics.begin(), Diagnostics.end(),
                    [](const Diagnostic &D) {
                      return D.Severity == DiagSeverity::Error;
                    })));

  if (!SummaryJson.empty()) {
    W.key("summary");
    W.valueRaw(SummaryJson);
  }
  W.endObject();
  return W.take();
}
