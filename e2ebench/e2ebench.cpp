//===- e2ebench/e2ebench.cpp - Benchmark of record ------------------------===//
//
// One closed-loop benchmark, one process, one thread: every operation starts
// when the previous one finishes. Three phases cover what a user of ATOM
// waits for (METRICS.md has the metric catalogue):
//
//   instrument  one cold atom::runAtom per (tool, app, preset) triple:
//               12 tools x {O0, O2} on the measured apps.
//   run         an instrumented or plain executable once in a fresh
//               sim::Machine on the default (DBT) tier, so translation is
//               paid per run.
//   observe     an O2 executable of a paper tool unprofiled, then with the
//               block profile on plus the hot-profile report (what
//               axp-run --profile does).
//
// Every run measures all three phases, so every end-to-end metric exists
// on every workload. The workload names the phase that gets the time
// budget (--seconds); the others make MinorPasses passes. An item's time
// is the best of its visits.
//
// --trace 1 then makes one traced pass: runAtom split into its public
// calls under obs spans, per-run simulator counters, and an interpreter-only
// rerun of every run-phase program. It prints the per-layer metrics and
// writes the registry (span tree included) to --trace-out.
//
// Usage:
//   e2ebench --workload instrument|run|observe --seed N --seconds S
//            --trace 0|1 [--trace-out FILE]
//
//===----------------------------------------------------------------------===//

#include "atom/Driver.h"
#include "atom/Recovery.h"
#include "obs/Obs.h"
#include "om/Lift.h"
#include "sim/Machine.h"
#include "sim/dbt/Dbt.h"
#include "support/Support.h"
#include "tools/Tools.h"
#include "workloads/Workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace atom;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Quantile by linear interpolation between closest ranks.
double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Pos = Q * double(Xs.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &Xs) { return quantile(Xs, 0.5); }

double geomean(const std::vector<double> &Xs) {
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return Xs.empty() ? 0 : std::exp(LogSum / double(Xs.size()));
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

//===----------------------------------------------------------------------===//
// The matrix
//===----------------------------------------------------------------------===//

enum Preset { O0, O2, NumPresets };
const char *const PresetNames[NumPresets] = {"O0", "O2"};

/// The ATF recorder runs with a partitioned analysis heap, as
/// `axp-trace record --tool` and fig6 run it.
constexpr uint64_t TraceHeapOffset = 16 * 1024 * 1024;

AtomOptions presetOptions(const Tool &T, Preset P) {
  AtomOptions O;
  O.Opt = P == O0 ? AtomOptions::OptPreset::O0 : AtomOptions::OptPreset::O2;
  O.Jobs = 1;
  O.CachePipeline = false;
  if (T.Name == "trace")
    O.AnalysisHeapOffset = TraceHeapOffset;
  return O;
}

/// The VFS file holding \p T's report.
std::string reportFile(const Tool &T) {
  return T.Name == "trace" ? "trace.raw" : T.Name + ".out";
}

/// One instrumented executable: (tool, app, preset).
struct Program {
  size_t Tool = 0, App = 0;
  Preset P = O0;
  obj::Executable Exe;
  std::vector<uint8_t> Bytes; ///< Set-up's serialized copy.
};

struct Suite {
  std::vector<const Tool *> Tools; ///< 11 paper tools, then trace.
  size_t PaperTools = 0;
  std::vector<const workloads::Workload *> Work;
  std::vector<obj::Executable> Apps;
  std::vector<Program> Progs;
  /// Each app's stdout on the checked interpreter: the pristine-behaviour
  /// oracle, from a different tier than the runs it judges.
  std::vector<std::string> Pristine;
  /// Per app: do the timed instrument and run phases visit its programs,
  /// and does the observe phase?
  std::vector<bool> Measured, Observed;

  size_t progIndex(size_t T, size_t A, Preset P) const {
    return (T * Apps.size() + A) * NumPresets + size_t(P);
  }
};

/// The apps whose instrumented programs the timed phases visit (the run
/// phase also runs all 20 apps uninstrumented). A shared host slows runs
/// down for seconds at a time, so each program's time is the best of many
/// visits; the eight cheapest apps get many visits per run where the whole
/// suite would get one or two. The ~6x slower observe phase takes two of
/// them whose profile overhead is typical of the suite (in the tiniest
/// apps machine set-up hides it). The traced pass covers all 20 apps.
const char *const MeasuredApps[] = {"sieve",     "fib",  "list",
                                    "strings",   "rle",  "ackermann",
                                    "unaligned", "fft"};
const char *const ObservedApps[] = {"sieve", "strings"};

/// Builds the suite and instruments all 480 programs. Returns the first
/// failure message, or "" on success.
std::string setUp(Suite &S) {
  S = Suite();
  for (const Tool &T : tools::allTools())
    S.Tools.push_back(&T);
  S.PaperTools = S.Tools.size();
  if (const Tool *T = tools::findTool("trace"))
    S.Tools.push_back(T);
  else
    return "no trace tool";
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    S.Work.push_back(&W);
    auto Named = [&W](const char *N) { return std::string(N) == W.Name; };
    S.Measured.push_back(std::any_of(std::begin(MeasuredApps),
                                     std::end(MeasuredApps), Named));
    S.Observed.push_back(std::any_of(std::begin(ObservedApps),
                                     std::end(ObservedApps), Named));
  }
  S.Apps.resize(S.Work.size());
  for (size_t A = 0; A < S.Work.size(); ++A) {
    DiagEngine D;
    if (!buildApplication(S.Work[A]->Source, S.Apps[A], D))
      return std::string("build ") + S.Work[A]->Name + ": " + D.str();
  }
  S.Progs.resize(S.Tools.size() * S.Apps.size() * NumPresets);
  for (size_t T = 0; T < S.Tools.size(); ++T)
    for (size_t A = 0; A < S.Apps.size(); ++A)
      for (int P = 0; P < NumPresets; ++P) {
        Program &Pr = S.Progs[S.progIndex(T, A, Preset(P))];
        Pr.Tool = T;
        Pr.App = A;
        Pr.P = Preset(P);
        InstrumentedProgram Out;
        DiagEngine D;
        if (!runAtom(S.Apps[A], *S.Tools[T],
                     presetOptions(*S.Tools[T], Preset(P)), Out, D))
          return "atom " + S.Tools[T]->Name + " " + S.Work[A]->Name + ": " +
                 D.str();
        Pr.Exe = std::move(Out.Exe);
        Pr.Bytes = Pr.Exe.serialize();
      }
  return "";
}

/// Fills \p S.Pristine; returns the first failure, or "".
std::string recordPristine(Suite &S) {
  sim::MachineOptions Checked;
  Checked.EnableDbt = false;
  Checked.EnableFastPath = false;
  for (size_t A = 0; A < S.Apps.size(); ++A) {
    sim::Machine M(S.Apps[A], Checked);
    sim::RunResult R = M.run();
    if (!R.exitedWith(0) || M.vfs().stdoutText().empty())
      return std::string("pristine run of ") + S.Work[A]->Name + " failed";
    S.Pristine.push_back(M.vfs().stdoutText());
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Output checks. Each returns "" when the output is correct, else why not;
// the self-check feeds each a corrupted input and demands that it fire.
//===----------------------------------------------------------------------===//

std::string checkAtom(bool Ok, const DiagEngine &D) {
  return Ok ? "" : "runAtom failed: " + D.str();
}

std::string checkExit(const RecoveryResult &RR) {
  const sim::RunResult &R = RR.Result;
  if (R.Status == sim::RunStatus::Trap)
    return std::string("trap ") + sim::trapKindName(R.Trap) + ": " +
           R.FaultMessage;
  if (!R.exitedWith(0))
    return "exit code " + std::to_string(R.ExitCode);
  return "";
}

std::string checkStdout(const std::string &Got, const std::string &Pristine) {
  return Got == Pristine ? "" : "app stdout differs from pristine";
}

std::string checkReportsAgree(uint64_t HashO0, uint64_t HashO2) {
  return HashO0 == HashO2 ? "" : "report differs between O0 and O2";
}

std::string checkBytes(const obj::Executable &Exe,
                       const std::vector<uint8_t> &SetUpCopy) {
  return Exe.serialize() == SetUpCopy ? ""
                                      : "executable differs from set-up";
}

/// Counts operations and keeps the first few failure messages.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;

  /// Records one operation whose checks produced \p Why ("" = passed).
  void op(const std::string &Why, const std::string &What) {
    ++Attempted;
    if (Why.empty())
      return;
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(What + ": " + Why);
  }
};

//===----------------------------------------------------------------------===//
// Phases
//===----------------------------------------------------------------------===//

/// Wall times of one phase, per item (program or app), one sample per
/// pass. An item's time is its best (minimum) sample: on a shared host the
/// minimum of a few runs is the stable estimate of what the code costs.
/// The median sample stands for one typical visit (tracing overhead).
struct Timings {
  std::vector<std::vector<double>> PerItem;
  double BusySeconds = 0;
  unsigned Passes = 0;

  void resize(size_t N) { PerItem.assign(N, {}); }
  void add(size_t Item, double Ms) {
    PerItem[Item].push_back(Ms);
    BusySeconds += Ms / 1000.0;
  }
  bool has(size_t Item) const { return !PerItem[Item].empty(); }
  double best(size_t Item) const {
    return *std::min_element(PerItem[Item].begin(), PerItem[Item].end());
  }
  double time(size_t Item, bool Median) const {
    return Median ? median(PerItem[Item]) : best(Item);
  }
};

//===----------------------------------------------------------------------===//
// CPU choice. On a shared host a vCPU whose physical core a neighbour is
// busy on runs up to 1.7x slower, for seconds at a time, while other vCPUs
// run at full speed. Timed operations therefore run on the allowed CPU
// that last ran a short fixed loop fastest, re-chosen every RepickMs. The
// process stays single-threaded.
//===----------------------------------------------------------------------===//

/// The CPUs this process may run on, as found on first call (main makes
/// that call before any pinning).
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof Set, &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Out.push_back(C);
    return Out;
  }();
  return Cpus;
}

bool pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof Set, &Set) == 0;
}

volatile uint64_t ProbeSink;

/// Wall time of a fixed chain of dependent integer operations (~0.1 ms).
double probeMs() {
  uint64_t X = 88172645463325252ull;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < 50000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  double Ms = msSince(T0);
  ProbeSink = X;
  return Ms;
}

constexpr double RepickMs = 50;

/// The winning probe time of every pick: how fast the host ran during the
/// run, printed with the results so slow runs can be told apart.
std::vector<double> QuietProbeMs;

/// Called before each timed operation (outside its timing).
void onQuietCpu() {
  static Clock::time_point Last;
  const std::vector<int> &Cpus = allowedCpus();
  if (Cpus.size() < 2 ||
      (Last != Clock::time_point() && msSince(Last) < RepickMs))
    return;
  int Best = Cpus[0];
  double BestMs = 1e30;
  for (int C : Cpus) {
    if (!pinTo(C))
      continue;
    double Ms = std::min(probeMs(), probeMs());
    if (Ms < BestMs) {
      BestMs = Ms;
      Best = C;
    }
  }
  pinTo(Best);
  QuietProbeMs.push_back(BestMs);
  Last = Clock::now();
}

/// Seed-shuffled visiting order for one pass over \p N items.
std::vector<size_t> passOrder(size_t N, std::mt19937_64 &Rng) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

struct Bench {
  const Suite &S;
  std::mt19937_64 Rng;
  Tally Ops;

  Timings Instr;       ///< Indexed like Suite::Progs.
  Timings RunInst;     ///< Indexed like Suite::Progs.
  Timings RunPlain;    ///< Indexed by app.
  Timings Observe;     ///< Profiled runs, indexed like Suite::Progs.
  Timings ObserveBase; ///< Their unprofiled twins, run just before.

  /// Report hash per program (0 = not yet seen), hot-profile report hash
  /// per observed program, and guest instruction counts per program and
  /// per plain app.
  std::vector<uint64_t> ReportHash, ProfileHash, Insts, PlainInsts;

  Bench(const Suite &S, uint64_t Seed) : S(S), Rng(Seed) {
    Instr.resize(S.Progs.size());
    RunInst.resize(S.Progs.size());
    Observe.resize(S.Progs.size());
    ObserveBase.resize(S.Progs.size());
    RunPlain.resize(S.Apps.size());
    ReportHash.assign(S.Progs.size(), 0);
    ProfileHash.assign(S.Progs.size(), 0);
    Insts.assign(S.Progs.size(), 0);
    PlainInsts.assign(S.Apps.size(), 0);
  }

  std::string what(const Program &Pr) const {
    return S.Tools[Pr.Tool]->Name + "@" + PresetNames[Pr.P] + " " +
           S.Work[Pr.App]->Name;
  }

  void instrumentPass() {
    for (size_t I : passOrder(S.Progs.size(), Rng)) {
      const Program &Pr = S.Progs[I];
      if (!S.Measured[Pr.App])
        continue;
      const Tool &T = *S.Tools[Pr.Tool];
      AtomOptions Opts = presetOptions(T, Pr.P);
      InstrumentedProgram Out;
      DiagEngine D;
      onQuietCpu();
      Clock::time_point T0 = Clock::now();
      bool Ok = runAtom(S.Apps[Pr.App], T, Opts, Out, D);
      Instr.add(I, msSince(T0));
      std::string Why = checkAtom(Ok, D);
      if (Why.empty())
        Why = checkBytes(Out.Exe, Pr.Bytes);
      Ops.op(Why, "instrument " + what(Pr));
    }
    ++Instr.Passes;
  }

  /// Runs \p Exe in a fresh machine; returns the wall time in ms.
  static double runOnce(const obj::Executable &Exe,
                        const sim::MachineOptions &MO, bool Profile,
                        RecoveryResult &RR, std::unique_ptr<sim::Machine> &M,
                        std::string *ProfileReport = nullptr) {
    onQuietCpu();
    Clock::time_point T0 = Clock::now();
    M = std::make_unique<sim::Machine>(Exe, MO);
    if (Profile)
      M->enableBlockProfile();
    RR = runWithRecovery(Exe, *M);
    if (ProfileReport)
      *ProfileReport = hotProfileReport(Exe, *M);
    return msSince(T0);
  }

  /// Checks one instrumented run's outputs and records its report hash.
  std::string checkRun(const Program &Pr, const RecoveryResult &RR,
                       sim::Machine &M) {
    std::string Why = checkExit(RR);
    if (Why.empty())
      Why = checkStdout(M.vfs().stdoutText(), S.Pristine[Pr.App]);
    std::string File = reportFile(*S.Tools[Pr.Tool]);
    if (Why.empty() && !M.vfs().fileExists(File))
      Why = "no " + File;
    if (!Why.empty())
      return Why;
    size_t I = S.progIndex(Pr.Tool, Pr.App, Pr.P);
    uint64_t H = mixHash(M.vfs().fileContents(File)) | 1;
    if (ReportHash[I] && ReportHash[I] != H)
      return "report changed between runs";
    ReportHash[I] = H;
    uint64_t Other = ReportHash[S.progIndex(Pr.Tool, Pr.App,
                                            Pr.P == O0 ? O2 : O0)];
    return Other ? checkReportsAgree(Pr.P == O0 ? H : Other,
                                     Pr.P == O0 ? Other : H)
                 : "";
  }

  /// Checks one uninstrumented run.
  std::string checkPlain(size_t App, const RecoveryResult &RR,
                         sim::Machine &M) {
    std::string Why = checkExit(RR);
    if (Why.empty())
      Why = checkStdout(M.vfs().stdoutText(), S.Pristine[App]);
    return Why;
  }

  void runPass() {
    size_t NProgs = S.Progs.size(), NApps = S.Apps.size();
    sim::MachineOptions MO;
    for (size_t I : passOrder(NProgs + NApps, Rng)) {
      RecoveryResult RR;
      std::unique_ptr<sim::Machine> M;
      if (I < NProgs) {
        const Program &Pr = S.Progs[I];
        if (!S.Measured[Pr.App])
          continue;
        RunInst.add(I, runOnce(Pr.Exe, MO, false, RR, M));
        Insts[I] = M->stats().Instructions;
        Ops.op(checkRun(Pr, RR, *M), "run " + what(Pr));
      } else {
        size_t A = I - NProgs;
        RunPlain.add(A, runOnce(S.Apps[A], MO, false, RR, M));
        PlainInsts[A] = M->stats().Instructions;
        Ops.op(checkPlain(A, RR, *M), std::string("run plain ") +
                                          S.Work[A]->Name);
      }
    }
    ++RunInst.Passes;
  }

  /// The observed programs: O2 executables of the paper tools.
  std::vector<size_t> observed() const {
    std::vector<size_t> Out;
    for (size_t T = 0; T < S.PaperTools; ++T)
      for (size_t A = 0; A < S.Apps.size(); ++A)
        if (S.Observed[A])
          Out.push_back(S.progIndex(T, A, O2));
    return Out;
  }

  /// Checks a hot-profile report and records its hash.
  std::string checkProfile(size_t I, const std::string &Report) {
    uint64_t H = mixHash(Report) | 1;
    if (Report.empty())
      return "empty hot-profile report";
    if (ProfileHash[I] && ProfileHash[I] != H)
      return "hot-profile report changed between runs";
    ProfileHash[I] = H;
    return "";
  }

  /// Each observed program runs unprofiled, then profiled with the report
  /// rendered: the pair gives its profile overhead.
  void observePass() {
    std::vector<size_t> Items = observed();
    sim::MachineOptions MO;
    for (size_t K : passOrder(Items.size(), Rng)) {
      size_t I = Items[K];
      const Program &Pr = S.Progs[I];
      RecoveryResult RR;
      std::unique_ptr<sim::Machine> M;
      ObserveBase.add(I, runOnce(Pr.Exe, MO, false, RR, M));
      Ops.op(checkRun(Pr, RR, *M), "observe base " + what(Pr));
      std::string Report;
      Observe.add(I, runOnce(Pr.Exe, MO, true, RR, M, &Report));
      std::string Why = checkRun(Pr, RR, *M);
      if (Why.empty())
        Why = checkProfile(I, Report);
      Ops.op(Why, "observe " + what(Pr));
    }
    ++Observe.Passes;
  }

  /// Digest of every report, profile and instruction count seen, in
  /// canonical (not visiting) order: equal digests over the same items
  /// mean byte-identical outputs. \p Items receives how many were seen.
  uint64_t digest(size_t &Items) const {
    uint64_t H = 14695981039346656037ull;
    auto Mix = [&H](uint64_t V) { H = fnv1a(&V, sizeof(V), H); };
    Items = 0;
    for (size_t I = 0; I < S.Progs.size(); ++I)
      if (ReportHash[I]) {
        ++Items;
        Mix(I);
        Mix(ReportHash[I]);
        Mix(ProfileHash[I]);
        Mix(Insts[I]);
      }
    for (uint64_t V : PlainInsts)
      Mix(V);
    return H;
  }

  /// Instrumented over plain run time (best of the passes) and guest
  /// instructions, for a program whose phase ran.
  double wallRatio(size_t I, bool Median = false) const {
    return RunInst.time(I, Median) / RunPlain.time(S.Progs[I].App, Median);
  }
  double icountRatio(size_t I) const {
    return double(Insts[I]) / double(PlainInsts[S.Progs[I].App]);
  }
};

//===----------------------------------------------------------------------===//
// Self-check: every output check fires on a deliberately corrupted input.
//===----------------------------------------------------------------------===//

std::string selfCheck(const Suite &S) {
  size_t Cache = 0;
  while (S.Tools[Cache]->Name != "cache")
    ++Cache;
  const Program &Pr = S.Progs[S.progIndex(Cache, 0, O0)];
  const Tool &T = *S.Tools[Pr.Tool];

  Tool Broken = T;
  Broken.AnalysisSources = {"long broken( {"};
  InstrumentedProgram Out;
  DiagEngine D;
  bool Ok = runAtom(S.Apps[Pr.App], Broken, presetOptions(T, O0), Out, D);
  if (checkAtom(Ok, D).empty())
    return "failed-runAtom check did not fire on a broken analysis source";

  obj::Executable BadEntry = Pr.Exe;
  BadEntry.Entry = 4; // below text: bad-pc trap on the first fetch
  sim::Machine M(BadEntry);
  if (checkExit(runWithRecovery(BadEntry, M)).empty())
    return "trap check did not fire on a corrupted entry point";
  RecoveryResult NonZero;
  NonZero.Result.Status = sim::RunStatus::Exited;
  NonZero.Result.ExitCode = 3;
  if (checkExit(NonZero).empty())
    return "exit-code check did not fire on exit code 3";

  std::string Pristine = S.Pristine[Pr.App];
  std::string Corrupt = Pristine;
  Corrupt.back() ^= 1;
  if (checkStdout(Corrupt, Pristine).empty())
    return "stdout check did not fire on a corrupted byte";

  sim::Machine Good(Pr.Exe);
  runWithRecovery(Pr.Exe, Good);
  std::string Report = Good.vfs().fileContents(reportFile(T));
  if (Report.empty())
    return "no cache report to corrupt";
  std::string BadReport = Report;
  BadReport[BadReport.size() / 2] ^= 1;
  if (checkReportsAgree(mixHash(Report), mixHash(BadReport)).empty())
    return "O0/O2 report check did not fire on a corrupted report";

  obj::Executable Flipped = Pr.Exe;
  Flipped.Text[Flipped.Text.size() / 2] ^= 1;
  if (checkBytes(Flipped, Pr.Bytes).empty())
    return "byte-identity check did not fire on a flipped text byte";
  return "";
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

struct Metrics {
  std::vector<Metric> List;
  void add(const std::string &Name, const std::string &Unit, double V) {
    List.push_back({Name, Unit, V});
  }
  double get(const std::string &Name) const {
    for (const Metric &M : List)
      if (M.Name == Name)
        return M.Value;
    return 0;
  }
};

/// The end-to-end metrics of the measured (untraced or traced) phases,
/// over each phase's programs (the measured apps, observed() for
/// observe). Item times are bests, or medians when \p Median is set.
/// Only the measured apps count, so a traced pass over the whole suite
/// compares like with like.
Metrics endToEnd(const Bench &B, const Tally &Ops, double SetupS,
                 bool Median = false) {
  const Suite &S = B.S;
  Metrics E;
  E.add("setup_s", "s", SetupS);
  std::vector<double> Instr;
  double InstrMs = 0;
  for (size_t I = 0; I < S.Progs.size(); ++I)
    if (B.Instr.has(I) && S.Measured[S.Progs[I].App]) {
      Instr.push_back(B.Instr.time(I, Median));
      InstrMs += Instr.back();
    }
  E.add("instrument_pairs_per_s", "1/s", double(Instr.size()) / InstrMs * 1e3);
  E.add("instrument_ms_p50", "ms", quantile(Instr, 0.5));
  E.add("instrument_ms_p95", "ms", quantile(Instr, 0.95));
  // Every instrument operation is checked byte-identical to set-up's copy,
  // so set-up's text is the text each pass produced.
  double TextBytes = 0;
  for (const Program &Pr : S.Progs)
    TextBytes += double(Pr.Exe.Text.size());
  E.add("text_bytes", "bytes", TextBytes);

  std::vector<double> RunAll, Wall, ICount, Overhead;
  for (size_t I = 0; I < S.Progs.size(); ++I)
    if (B.RunInst.has(I) && S.Measured[S.Progs[I].App]) {
      RunAll.push_back(B.RunInst.time(I, Median));
      Wall.push_back(B.wallRatio(I, Median));
      ICount.push_back(B.icountRatio(I));
    }
  double PlainInsts = 0, PlainMs = 0;
  for (size_t A = 0; A < S.Apps.size(); ++A)
    if (B.RunPlain.has(A)) {
      RunAll.push_back(B.RunPlain.time(A, Median));
      PlainInsts += double(B.PlainInsts[A]);
      PlainMs += RunAll.back();
    }
  E.add("run_ms_p50", "ms", quantile(RunAll, 0.5));
  E.add("run_ms_p95", "ms", quantile(RunAll, 0.95));
  E.add("wall_ratio", "x", geomean(Wall));
  E.add("icount_ratio", "x", geomean(ICount));
  E.add("plain_minst_per_s", "Minst/s", PlainInsts / 1e6 / (PlainMs / 1e3));

  std::vector<double> Profiled;
  for (size_t I : B.observed())
    if (B.Observe.has(I)) {
      Profiled.push_back(B.Observe.time(I, Median));
      Overhead.push_back(Profiled.back() / B.ObserveBase.time(I, Median));
    }
  E.add("profiled_run_ms_p50", "ms", quantile(Profiled, 0.5));
  E.add("profiled_run_ms_p95", "ms", quantile(Profiled, 0.95));
  E.add("profile_overhead", "x", geomean(Overhead));
  E.add("success_rate", "ratio",
        1.0 - double(Ops.Failed) / double(Ops.Attempted));
  E.add("peak_rss_mb", "MB", peakRssMb());
  return E;
}

void writeResult(bool Correct, const Tally &T, const Metrics &M) {
  obs::JsonWriter J;
  J.beginObject();
  J.key("correct");
  J.value(Correct);
  J.key("attempted");
  J.value(T.Attempted);
  J.key("failed");
  J.value(T.Failed);
  J.key("metrics");
  J.beginObject();
  for (const Metric &X : M.List) {
    J.key(X.Name);
    J.beginObject();
    J.key("value");
    J.value(X.Value);
    J.key("unit");
    J.value(X.Unit);
    J.endObject();
  }
  J.endObject();
  J.endObject();
  std::printf("%s\n", J.take().c_str());
}

//===----------------------------------------------------------------------===//
// The traced pass
//===----------------------------------------------------------------------===//

const char *const EngineSpans[] = {"plan",        "rename", "dataflow",
                                   "setup-calls", "insert", "layout"};

const obs::Registry::SpanNode *child(const obs::Registry::SpanNode *N,
                                     const std::string &Name) {
  if (!N)
    return nullptr;
  for (const auto &C : N->Children)
    if (C->Name == Name)
      return C.get();
  return nullptr;
}

/// A span's duration minus the part its children cover.
double selfSeconds(const obs::Registry::SpanNode *N) {
  if (!N)
    return 0;
  double S = N->Seconds;
  for (const auto &C : N->Children)
    S -= C->Seconds;
  return S;
}

/// Per-group run-phase counters ("O0", "O2", "plain").
struct RunCounters {
  double GuestInsts = 0, TransMisses = 0, DbtMs = 0, InterpMs = 0;
  sim::dbt::DbtPerf Dbt;

  void add(sim::Machine &M) {
    GuestInsts += double(M.stats().Instructions);
    TransMisses += double(M.memory().perf().TransMisses);
    if (const sim::dbt::DbtPerf *P = M.dbtPerf()) {
      Dbt.BlocksTranslated += P->BlocksTranslated;
      Dbt.CacheBytes += P->CacheBytes;
      Dbt.SlowMemOps += P->SlowMemOps;
      Dbt.InterpFallbacks += P->InterpFallbacks;
      Dbt.ChainLinks += P->ChainLinks;
      Dbt.TlbFills += P->TlbFills;
      Dbt.CacheFlushes += P->CacheFlushes;
    }
  }
};

/// Runs the traced pass and appends the per-layer metrics to \p L. The
/// traced phases also refill \p Traced's timings so the caller can report
/// the tracing overhead against the untraced run.
void tracedPass(Bench &B, Bench &Traced, Metrics &L,
                std::vector<std::string> &Evidence) {
  const Suite &S = B.S;
  obs::Registry &Reg = obs::Registry::global();
  Reg.reset();
  Reg.setEnabled(true);

  // instrument: runAtom split into its four public calls.
  double CallS[NumPresets][4] = {};
  InstrStats Counts[NumPresets];
  for (size_t I : passOrder(S.Progs.size(), B.Rng)) {
    const Program &Pr = S.Progs[I];
    const Tool &T = *S.Tools[Pr.Tool];
    AtomOptions Opts = presetOptions(T, Pr.P);
    DiagEngine D;
    std::vector<obj::ObjectModule> Mods;
    om::Unit Anal, Lifted;
    InstrumentedProgram Out;
    bool Ok = true;
    double Ms[4];
    onQuietCpu();
    {
      obs::Span Group(Pr.P == O0 ? "instrument.O0" : "instrument.O2");
      Clock::time_point T0 = Clock::now();
      {
        obs::Span Sp("mcc");
        Ok = compileAnalysisModules(T, Mods, D);
      }
      Ms[0] = msSince(T0);
      T0 = Clock::now();
      if (Ok) {
        obs::Span Sp("link");
        Ok = buildAnalysisUnit(Mods, Anal, D);
      }
      Ms[1] = msSince(T0);
      T0 = Clock::now();
      if (Ok) {
        obs::Span Sp("om");
        Ok = om::liftExecutable(S.Apps[Pr.App], Lifted, D);
      }
      Ms[2] = msSince(T0);
      T0 = Clock::now();
      if (Ok) {
        obs::Span Sp("atom");
        PipelineReuse Reuse{&Lifted, &Anal};
        Ok = instrument(S.Apps[Pr.App], T.Instrument, {}, Opts, Out, D,
                        &Reuse);
      }
      Ms[3] = msSince(T0);
    }
    for (int K = 0; K < 4; ++K)
      CallS[Pr.P][K] += Ms[K] / 1000.0;
    Traced.Instr.add(I, Ms[0] + Ms[1] + Ms[2] + Ms[3]);
    std::string Why = checkAtom(Ok, D);
    if (Why.empty())
      Why = checkBytes(Out.Exe, Pr.Bytes);
    B.Ops.op(Why, "traced instrument " + B.what(Pr));
    InstrStats &C = Counts[Pr.P];
    const InstrStats &St = Out.Stats;
    C.Points += St.Points;
    C.InsertedInsts += St.InsertedInsts;
    C.SaveSlots += St.SaveSlots;
    C.Wrappers += St.Wrappers;
    C.ProbeInlinedSites += St.ProbeInlinedSites;
    C.ProbeGuardedSites += St.ProbeGuardedSites;
    C.ProbeArgsElided += St.ProbeArgsElided;
  }

  const char *CallNames[4] = {"mcc.compile_analysis_s", "link.analysis_unit_s",
                              "om.lift_app_s", "atom.instrument_s"};
  for (int P = 0; P < NumPresets; ++P) {
    std::string Sfx = std::string(".") + PresetNames[P];
    for (int K = 0; K < 4; ++K)
      L.add(CallNames[K] + Sfx, "s", CallS[P][K]);
    const obs::Registry::SpanNode *Atom = child(
        child(&Reg.spanRoot(), "instrument" + Sfx), "atom");
    for (const char *Name : EngineSpans)
      L.add(std::string("atom.span.") + Name + "_s" + Sfx, "s",
            selfSeconds(child(Atom, Name)));
    const InstrStats &C = Counts[P];
    L.add("atom.points" + Sfx, "count", C.Points);
    L.add("atom.inserted_insts" + Sfx, "count", C.InsertedInsts);
    L.add("atom.save_slots" + Sfx, "count", C.SaveSlots);
    L.add("atom.wrappers" + Sfx, "count", C.Wrappers);
    L.add("atom.probe_inlined_sites" + Sfx, "count", C.ProbeInlinedSites);
    L.add("atom.probe_guarded_sites" + Sfx, "count", C.ProbeGuardedSites);
    L.add("atom.probe_args_elided" + Sfx, "count", C.ProbeArgsElided);
    // How much of the untraced runAtom time the four calls account for.
    double Calls = 0, Untraced = 0;
    for (size_t I = 0; I < S.Progs.size(); ++I)
      if (S.Progs[I].P == P && B.Instr.has(I)) {
        Calls += Traced.Instr.best(I);
        Untraced += B.Instr.time(I, /*Median=*/true);
      }
    L.add("atom.call_coverage" + Sfx, "ratio", Calls / Untraced);
  }

  // run: default tier with counters, then the interpreter alone. Outputs
  // are checked against the untraced run's (B's) reports.
  enum { GO0, GO2, GPlain, NumGroups };
  const char *GroupNames[NumGroups] = {"O0", "O2", "plain"};
  RunCounters RC[NumGroups];
  std::vector<RunCounters> PerTool(S.Tools.size() * NumPresets);
  size_t NProgs = S.Progs.size();
  sim::MachineOptions Dbt, Interp;
  Interp.EnableDbt = false;
  for (size_t I : passOrder(NProgs + S.Apps.size(), B.Rng)) {
    bool Plain = I >= NProgs;
    size_t G = Plain ? size_t(GPlain) : size_t(S.Progs[I].P);
    const obj::Executable &Exe =
        Plain ? S.Apps[I - NProgs] : S.Progs[I].Exe;
    auto Check = [&](const RecoveryResult &RR, sim::Machine &M) {
      return Plain ? B.checkPlain(I - NProgs, RR, M)
                   : B.checkRun(S.Progs[I], RR, M);
    };
    RecoveryResult RR;
    std::unique_ptr<sim::Machine> M;
    double Ms;
    {
      obs::Span Sp(Plain ? "run.plain" : G == GO0 ? "run.O0" : "run.O2");
      Ms = Bench::runOnce(Exe, Dbt, false, RR, M);
    }
    RC[G].DbtMs += Ms;
    RC[G].add(*M);
    if (Plain) {
      Traced.RunPlain.add(I - NProgs, Ms);
      Traced.PlainInsts[I - NProgs] = M->stats().Instructions;
    } else {
      Traced.RunInst.add(I, Ms);
      Traced.Insts[I] = M->stats().Instructions;
      PerTool[S.Progs[I].Tool * NumPresets + G].add(*M);
    }
    B.Ops.op(Check(RR, *M), "traced run");
    {
      obs::Span Sp(Plain ? "interp.plain" : G == GO0 ? "interp.O0"
                                                      : "interp.O2");
      RC[G].InterpMs += Bench::runOnce(Exe, Interp, false, RR, M);
    }
    B.Ops.op(Check(RR, *M), "interpreter run");
  }

  for (int G = 0; G < NumGroups; ++G) {
    std::string Sfx = std::string(".") + GroupNames[G];
    const RunCounters &C = RC[G];
    L.add("sim.guest_insts" + Sfx, "count", C.GuestInsts);
    L.add("dbt.blocks_translated" + Sfx, "count",
          double(C.Dbt.BlocksTranslated));
    L.add("dbt.cache_bytes" + Sfx, "bytes", double(C.Dbt.CacheBytes));
    L.add("dbt.slow_mem_ops" + Sfx, "count", double(C.Dbt.SlowMemOps));
    L.add("dbt.interp_fallbacks" + Sfx, "count",
          double(C.Dbt.InterpFallbacks));
    L.add("dbt.chain_links" + Sfx, "count", double(C.Dbt.ChainLinks));
    L.add("dbt.tlb_fills" + Sfx, "count", double(C.Dbt.TlbFills));
    L.add("dbt.cache_flushes" + Sfx, "count", double(C.Dbt.CacheFlushes));
    L.add("dbt.insts_per_cache_byte" + Sfx, "inst/byte",
          C.Dbt.CacheBytes ? C.GuestInsts / double(C.Dbt.CacheBytes) : 0);
    L.add("sim.trans_misses" + Sfx, "count", C.TransMisses);
    L.add("sim.interp_run_s" + Sfx, "s", C.InterpMs / 1000.0);
    L.add("sim.dbt_speedup" + Sfx, "x", C.InterpMs / C.DbtMs);
  }

  // Per-tool rows: exact icount ratio and the traced pass's wall ratio,
  // both over all 20 apps (also ROADMAP item 1's table).
  for (size_t T = 0; T < S.Tools.size(); ++T)
    for (int P = 0; P < NumPresets; ++P) {
      std::vector<double> IC, W;
      for (size_t A = 0; A < S.Apps.size(); ++A) {
        size_t I = S.progIndex(T, A, Preset(P));
        IC.push_back(Traced.icountRatio(I));
        W.push_back(Traced.wallRatio(I));
      }
      std::string Pfx = "tool." + S.Tools[T]->Name + "." + PresetNames[P];
      L.add(Pfx + ".icount_ratio", "x", geomean(IC));
      L.add(Pfx + ".wall_ratio", "x", geomean(W));
      Evidence.push_back(formatString("%-8s %s icount %6.2fx wall %6.2fx",
                                      S.Tools[T]->Name.c_str(),
                                      PresetNames[P], geomean(IC),
                                      geomean(W)));
    }

  // ROADMAP item 1 evidence, after the table above: per-tool DBT counters
  // of cache and branch.
  for (size_t T = 0; T < S.Tools.size(); ++T)
    for (int P = 0; P < NumPresets; ++P) {
      const std::string &Name = S.Tools[T]->Name;
      if (Name != "cache" && Name != "branch")
        continue;
      const RunCounters &C = PerTool[T * NumPresets + P];
      Evidence.push_back(formatString(
          "%s@%s guest-insts %.0f dbt-cache-bytes %llu dbt-slow-mem-ops %llu "
          "dbt-blocks-translated %llu",
          Name.c_str(), PresetNames[P], C.GuestInsts,
          (unsigned long long)C.Dbt.CacheBytes,
          (unsigned long long)C.Dbt.SlowMemOps,
          (unsigned long long)C.Dbt.BlocksTranslated));
    }

  // observe: profiled runs with the report rendered separately.
  double ProfiledBlocks = 0, SlowEntries = 0, FastEntries = 0, ReportS = 0,
         ObsTranslated = 0;
  std::vector<size_t> Items = B.observed();
  sim::MachineOptions MO;
  for (size_t K : passOrder(Items.size(), B.Rng)) {
    size_t I = Items[K];
    const Program &Pr = S.Progs[I];
    onQuietCpu();
    obs::Span Sp("observe");
    Clock::time_point T0 = Clock::now();
    sim::Machine M(Pr.Exe, MO);
    M.enableBlockProfile();
    RecoveryResult RR;
    {
      obs::Span Run("run");
      RR = runWithRecovery(Pr.Exe, M);
    }
    Clock::time_point T1 = Clock::now();
    std::string Report;
    {
      obs::Span Rep("hot-report");
      Report = hotProfileReport(Pr.Exe, M);
    }
    ReportS += std::chrono::duration<double>(Clock::now() - T1).count();
    Traced.Observe.add(I, msSince(T0));
    ProfiledBlocks += double(M.blockProfile().size());
    SlowEntries += double(M.loopPerf().SlowEntries);
    FastEntries += double(M.loopPerf().FastEntries);
    if (const sim::dbt::DbtPerf *P = M.dbtPerf())
      ObsTranslated += double(P->BlocksTranslated);
    std::string Why = B.checkRun(Pr, RR, M);
    if (Why.empty())
      Why = B.checkProfile(I, Report);
    B.Ops.op(Why, "traced observe " + B.what(Pr));
    // The unprofiled twin is the traced run phase's run of the program.
    Traced.ObserveBase.add(I, Traced.RunInst.best(I));
  }
  L.add("sim.profiled_blocks", "count", ProfiledBlocks);
  L.add("sim.loop_slow_entries", "count", SlowEntries);
  L.add("sim.loop_fast_entries", "count", FastEntries);
  L.add("atom.hot_report_s", "s", ReportS);
  L.add("dbt.blocks_translated.observe", "count", ObsTranslated);
  Reg.setEnabled(false);
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut = "e2ebench-trace.json";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload instrument|run|observe --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage();
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--trace-out")
      A.TraceOut = V;
    else
      usage();
  }
  if (A.Workload != "instrument" && A.Workload != "run" &&
      A.Workload != "observe")
    usage();
  if (!(A.Seconds > 0))
    usage();
  return A;
}

/// Set-ups per run; setup_s is their median.
constexpr int SetUps = 3;
/// Minimum passes of the workload's own phase, and the passes of each
/// other phase: every item's time is a best of several visits spread
/// over the run.
constexpr unsigned MinPasses = 4, MinorPasses = 6;

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // Measure the defaults a user gets: no preset or tier overrides.
  unsetenv("ATOM_OPT");
  unsetenv("ATOM_SIM_DBT");
  unsetenv("ATOM_ENABLE_CRASH_TOOL");
  allowedCpus();
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));

  Suite S;
  std::vector<double> SetupS;
  for (int K = 0; K < SetUps; ++K) {
    onQuietCpu();
    Clock::time_point T0 = Clock::now();
    std::string Err = setUp(S);
    SetupS.push_back(msSince(T0) / 1000.0);
    if (!Err.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
      return 1;
    }
  }
  if (std::string Err = recordPristine(S); !Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  Bench B(S, A.Seed);
  std::string SelfErr = selfCheck(S);
  std::printf("self-check: %s\n", SelfErr.empty() ? "ok" : SelfErr.c_str());

  // Whole passes of the workload's own phase while they fit in --seconds
  // (at least MinPasses), and MinorPasses passes of each other phase
  // spread evenly between them.
  bool Inst = A.Workload == "instrument", Run = A.Workload == "run",
       Obs = A.Workload == "observe";
  Clock::time_point Start = Clock::now();
  double BudgetMs = A.Seconds * 1e3, PrimaryMs = 0, LastMs = 0;
  unsigned Primary = 0, Minor = 0;
  for (;;) {
    bool PrimaryDue = Primary < MinPasses || PrimaryMs + LastMs <= BudgetMs;
    bool MinorDue = Minor < MinorPasses &&
                    (!PrimaryDue || PrimaryMs >= Minor * BudgetMs / MinorPasses);
    if (!PrimaryDue && !MinorDue)
      break;
    if (MinorDue) {
      if (!Inst)
        B.instrumentPass();
      if (!Run)
        B.runPass();
      if (!Obs)
        B.observePass();
      ++Minor;
    }
    if (PrimaryDue) {
      Clock::time_point T0 = Clock::now();
      if (Inst)
        B.instrumentPass();
      else if (Run)
        B.runPass();
      else
        B.observePass();
      LastMs = msSince(T0);
      PrimaryMs += LastMs;
      ++Primary;
    }
  }
  double MeasuredS = msSince(Start) / 1000.0;

  Metrics E = endToEnd(B, B.Ops, median(SetupS));
  std::printf("measured %.2f s: instrument %u pass(es) %.2f s busy, run %u "
              "%.2f s, observe %u %.2f s\n",
              MeasuredS, B.Instr.Passes, B.Instr.BusySeconds,
              B.RunInst.Passes, B.RunInst.BusySeconds + B.RunPlain.BusySeconds,
              B.Observe.Passes, B.Observe.BusySeconds);
  if (!QuietProbeMs.empty())
    std::printf("host probe: best %.4f ms, median %.4f ms over %zu picks\n",
                *std::min_element(QuietProbeMs.begin(), QuietProbeMs.end()),
                median(QuietProbeMs), QuietProbeMs.size());
  size_t Seen = 0;
  uint64_t Digest = B.digest(Seen);
  std::printf("reports digest %016llx over %zu programs\n",
              (unsigned long long)Digest, Seen);
  for (const Metric &M : E.List)
    std::printf("  %-24s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  Metrics Out = E;
  if (A.Trace) {
    Bench Traced(S, A.Seed);
    Metrics L;
    std::vector<std::string> Evidence;
    tracedPass(B, Traced, L, Evidence);
    // Each traced item ran once: compare it with a typical untraced visit.
    Metrics TE = endToEnd(Traced, B.Ops, median(SetupS));
    Metrics EMed = endToEnd(B, B.Ops, median(SetupS), /*Median=*/true);
    std::printf("tracing overhead (traced - untraced median visit):\n");
    for (const Metric &M : EMed.List)
      if (M.Name != "setup_s" && M.Name != "peak_rss_mb" &&
          M.Name != "success_rate") {
        double D = TE.get(M.Name) - M.Value;
        std::printf("  %-24s %+14.6g %s\n", M.Name.c_str(), D,
                    M.Unit.c_str());
        if (M.Name == "instrument_ms_p50" || M.Name == "run_ms_p50" ||
            M.Name == "profiled_run_ms_p50")
          L.add("trace_overhead." + M.Name, M.Unit, D);
      }
    std::printf("ROADMAP item 1 evidence:\n");
    for (const std::string &Line : Evidence)
      std::printf("  %s\n", Line.c_str());

    // The span tree and registry, kept in memory during the pass, written
    // out now together with the run's identity.
    Digest = B.digest(Seen);
    std::printf("reports digest %016llx over %zu programs (with traced "
                "pass)\n",
                (unsigned long long)Digest, Seen);
    obs::Registry &Reg = obs::Registry::global();
    Reg.setEnabled(true);
    Reg.emitEvent(obs::Event("e2ebench")
                      .str("workload", A.Workload)
                      .num("seed", A.Seed)
                      .str("digest", formatString("%016llx",
                                                  (unsigned long long)Digest))
                      .num("digest-programs", Seen));
    for (const Metric &M : L.List)
      Reg.setGauge("e2ebench." + M.Name, M.Value);
    for (const Metric &M : E.List)
      Reg.setGauge("e2ebench.untraced." + M.Name, M.Value);
    for (const Metric &M : EMed.List)
      Reg.setGauge("e2ebench.untraced-median." + M.Name, M.Value);
    for (const Metric &M : TE.List)
      Reg.setGauge("e2ebench.traced." + M.Name, M.Value);
    std::ofstream F(A.TraceOut, std::ios::binary | std::ios::trunc);
    F << Reg.toJson() << "\n";
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", A.TraceOut.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", A.TraceOut.c_str());
    Out = L;
  }

  for (const std::string &Err : B.Ops.Errors)
    std::printf("FAILED %s\n", Err.c_str());
  bool Correct = SelfErr.empty() && B.Ops.Failed == 0;
  writeResult(Correct, B.Ops, Out);
  return 0;
}
