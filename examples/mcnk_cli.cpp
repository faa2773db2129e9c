//===----------------------------------------------------------------------===//
///
/// \file
/// mcnk: a command-line verifier for `.pnk` programs.
///
///   mcnk check  <file.pnk>                 parse + guardedness check
///   mcnk lint   [--fix] [--json] <file.pnk> static analysis (S15 + S17)
///   mcnk dump   <file.pnk>                 compile and dump the FDD
///   mcnk run    <file.pnk> f=v[,g=w...]    output distribution for input
///   mcnk equiv  <a.pnk> <b.pnk>            exact program equivalence
///   mcnk prism  <file.pnk> f=v[,g=w...]    emit a PRISM model
///   mcnk fuzz   [--seed N] [--iters N]     cross-engine differential fuzz
///
/// `lint` runs the S15 abstract-interpretation analyzer (ast/Analyze.h)
/// and the S17 field-dependency checks (ast/Deps.h: dead-field,
/// write-only-field, query-irrelevant-assignment) plus the parser's
/// advisory warnings and prints one
/// `file:line:col: warning[check-name]: message` line per finding to
/// stdout, sorted by source position. With --json the same findings are
/// emitted instead as one JSON array of {file, line, col, check, message}
/// objects (the serve daemon's serializer renders them, so the `lint`
/// verb there and this flag agree byte-for-byte). Exit 0 when the
/// program is clean, 1 when there are findings, 2 on usage or parse
/// errors — identical in both output modes. With --fix the verified
/// simplifier rewrites the program and the result is written back to the
/// file (to stdout for "-"), exiting 0 unless the write fails. With
/// --registry the checks run over every scenario-registry program (via
/// its printed form, labelled registry:<name>) instead of a file — the
/// corpus `ci.sh lint` diffs against its checked-in baseline.
///
/// `fuzz` drives the src/gen/ differential oracle: N seeded random
/// guarded programs plus the whole scenario registry, every engine
/// cross-checked. The reproducing seed is flushed to stdout *before* the
/// run starts and repeated on stderr next to any disagreement, so even an
/// engine abort deep inside a solve cannot lose it. Exit codes are
/// distinct per failure class: 0 all engines agree, 3 disagreement found,
/// 2 usage/setup error (1 is the generic error code of the other
/// subcommands; an engine crash aborts with SIGABRT).
///
/// Compilation and loop solves run serially on the calling thread. Any
/// single-dash argument other than "-" (stdin), and any other dash
/// argument outside fuzz and lint, is an unknown option: a usage error,
/// exit 2. The global option --cache enables the cross-compile
/// memoization cache (ARCHITECTURE S12) on every verifier the command
/// builds and prints the hit/miss statistics on exit. The global option
/// --simplify runs the verified S15 simplifier over every program
/// before compiling it (semantics-preserving: the diagrams are
/// reference-identical, a contract the oracle enforces). The global
/// option --slice then runs S17 query-directed cone-of-influence slicing
/// (ast/Slice.h) on the AST, after any --simplify and before the
/// verifier compiles it: `dump` slices for the delivery observation (only
/// the drop mass is observed, so assignments invisible to delivery
/// queries are removed and the diagram shrinks — a slice statistics line
/// reports by how much), while `run` and `equiv` slice for the
/// all-fields observation (their answers expose whole output packets, so
/// slicing is a verified no-op there). Programs read from "-" come from
/// stdin.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ast/Analyze.h"
#include "ast/Deps.h"
#include "ast/Printer.h"
#include "ast/Simplify.h"
#include "ast/Slice.h"
#include "ast/Traversal.h"
#include "fdd/Export.h"
#include "gen/Oracle.h"
#include "parser/Parser.h"
#include "prism/Translate.h"
#include "serve/Lint.h"

#include <algorithm>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>

using namespace mcnk;

namespace {

bool readSource(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Out = Buffer.str();
    return true;
  }
  std::ifstream File(Path);
  if (!File)
    return false;
  Out.assign(std::istreambuf_iterator<char>(File),
             std::istreambuf_iterator<char>());
  return true;
}

const ast::Node *parseFile(const std::string &Path, ast::Context &Ctx) {
  std::string Source;
  if (!readSource(Path, Source)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return nullptr;
  }
  parser::ParseResult Result = parser::parseProgram(Source, Ctx);
  if (!Result.ok()) {
    for (const parser::Diagnostic &D : Result.Diagnostics)
      std::fprintf(stderr, "%s:%s\n", Path.c_str(), D.render().c_str());
    return nullptr;
  }
  return Result.Program;
}

/// Parses "f=v,g=w" into a packet over Ctx's fields (unknown fields are
/// interned; unset fields default to 0).
bool parseInputPacket(const std::string &Spec, ast::Context &Ctx,
                      Packet &Out) {
  std::vector<std::pair<FieldId, FieldValue>> Assignments;
  std::size_t Pos = 0;
  while (Pos < Spec.size()) {
    std::size_t Eq = Spec.find('=', Pos);
    if (Eq == std::string::npos)
      return false;
    std::size_t End = Spec.find(',', Eq);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Field = Spec.substr(Pos, Eq - Pos);
    std::string Value = Spec.substr(Eq + 1, End - Eq - 1);
    if (Field.empty() || Value.empty())
      return false;
    unsigned long long V = 0;
    for (char C : Value) {
      if (C < '0' || C > '9')
        return false;
      V = V * 10 + static_cast<unsigned>(C - '0');
    }
    Assignments.emplace_back(Ctx.field(Field),
                             static_cast<FieldValue>(V));
    Pos = End + (End < Spec.size() ? 1 : 0);
  }
  Out = Packet(Ctx.fields().numFields());
  for (const auto &[F, V] : Assignments)
    Out.set(F, V);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: mcnk [--cache] [--simplify] [--slice] "
               "check|dump <file.pnk>\n"
               "       mcnk lint [--fix] [--json] <file.pnk>\n"
               "       mcnk lint [--json] --registry\n"
               "       mcnk [--cache] [--simplify] [--slice] "
               "run|prism <file.pnk> f=v[,g=w...]\n"
               "       mcnk [--cache] [--simplify] [--slice] "
               "equiv <a.pnk> <b.pnk>\n"
               "       mcnk [--cache] fuzz [--seed N] [--iters N] "
               "[--no-scenarios]\n"
               "  --cache   enable the cross-compile memoization cache and "
               "print its stats\n"
               "  --simplify run the verified S15 simplifier over every\n"
               "            program before compiling (same diagrams,\n"
               "            enforced by the oracle)\n"
               "  --slice   run S17 cone-of-influence slicing before\n"
               "            compiling: dump slices for the delivery\n"
               "            observation (and prints slice stats), run and\n"
               "            equiv for the all-fields observation (their\n"
               "            answers expose whole packets)\n"
               "  lint      run the S15 static analyzer and the S17\n"
               "            dependency checks; one file:line:col:\n"
               "            warning[check]: line per finding (--json: a\n"
               "            JSON array of findings instead), exit 0 clean\n"
               "            / 1 findings / 2 errors; --fix rewrites the\n"
               "            file with the verified simplifier's output\n"
               "  fuzz      run the cross-engine differential oracle on N\n"
               "            random programs (default 25) plus the scenario\n"
               "            registry; exit 3 on any disagreement (2 on\n"
               "            usage errors), printing the reproducing seed\n");
  return 2;
}

/// Prints one line of cache statistics (the --cache report).
void printCacheStats(const fdd::CompileCache &Cache) {
  fdd::CompileCache::Stats S = Cache.stats();
  std::printf("cache: %llu hits, %llu misses, %llu insertions, "
              "%llu evictions; %zu entries holding %zu portable nodes\n",
              static_cast<unsigned long long>(S.Hits),
              static_cast<unsigned long long>(S.Misses),
              static_cast<unsigned long long>(S.Insertions),
              static_cast<unsigned long long>(S.Evictions), S.Entries,
              S.StoredNodes);
}

/// `mcnk lint [--fix] [--json]`: the S15 static analyzer plus the S17
/// dependency checks, through the pipeline the serve daemon's `lint` verb
/// shares (serve/Lint.h), so the two agree byte-for-byte. --json emits
/// the findings as one JSON array instead of text lines (exit codes are
/// identical either way); --fix rewrites the file with the verified
/// simplifier's output.
int runLint(const std::vector<std::string> &Args) {
  bool Fix = false;
  bool AsJson = false;
  bool Registry = false;
  std::string Path;
  for (std::size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--fix") {
      Fix = true;
    } else if (Args[I] == "--json") {
      AsJson = true;
    } else if (Args[I] == "--registry") {
      Registry = true;
    } else if (Path.empty()) {
      Path = Args[I];
    } else {
      std::fprintf(stderr, "error: unknown lint argument '%s'\n",
                   Args[I].c_str());
      return usage();
    }
  }
  if (Registry) {
    // Lint every registry scenario instead of a file: each program goes
    // through the printer and back through the parser (so findings carry
    // real spans — the same path a program takes into the serve daemon),
    // labelled registry:<scenario>. CI diffs this output against a
    // checked-in baseline to catch new diagnostics on the models.
    if (Fix || !Path.empty())
      return usage();
    bool AnyFindings = false;
    for (const gen::ScenarioSpec &Spec : gen::buildRegistry({})) {
      ast::Context BuildCtx;
      gen::Scenario S = Spec.Build(BuildCtx);
      std::string Printed = ast::print(S.Program, BuildCtx.fields());
      ast::Context Ctx;
      parser::ParseResult Result = parser::parseProgram(Printed, Ctx);
      if (!Result.ok()) {
        std::fprintf(stderr, "error: registry scenario %s does not "
                             "re-parse from its printed form\n",
                     S.Name.c_str());
        return 2;
      }
      std::vector<serve::LintEntry> Entries =
          serve::lintProgram(Ctx, Result.Program, Result.Warnings);
      std::string Label = "registry:" + S.Name;
      if (AsJson) {
        std::printf("%s\n", serve::lintJson(Label, Entries).dump().c_str());
      } else {
        for (const serve::LintEntry &E : Entries)
          std::printf("%s\n", serve::renderLintEntry(Label, E).c_str());
      }
      AnyFindings |= !Entries.empty();
    }
    return AnyFindings ? 1 : 0;
  }
  if (Path.empty())
    return usage();
  std::string Source;
  if (!readSource(Path, Source)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return 2;
  }
  ast::Context Ctx;
  parser::ParseResult Result = parser::parseProgram(Source, Ctx);
  if (!Result.ok()) {
    for (const parser::Diagnostic &D : Result.Diagnostics)
      std::fprintf(stderr, "%s:%s\n", Path.c_str(), D.render().c_str());
    return 2;
  }

  std::vector<serve::LintEntry> Entries =
      serve::lintProgram(Ctx, Result.Program, Result.Warnings);
  if (AsJson) {
    std::printf("%s\n", serve::lintJson(Path, Entries).dump().c_str());
  } else {
    for (const serve::LintEntry &E : Entries)
      std::printf("%s\n", serve::renderLintEntry(Path, E).c_str());
  }

  if (Fix) {
    ast::SimplifyStats Stats;
    const ast::Node *Simplified =
        ast::simplify(Ctx, Result.Program, {}, &Stats);
    std::string Printed = ast::print(Simplified, Ctx.fields()) + "\n";
    if (Path == "-") {
      std::printf("%s", Printed.c_str());
    } else if (Printed == Source) {
      // No-op fix: leave the file alone entirely. Opening it with trunc
      // would rewrite identical bytes but still bump the mtime, which
      // makes build systems and editors watching the file re-trigger on
      // every lint run.
      std::fprintf(stderr, "unchanged: %s (already simplified)\n",
                   Path.c_str());
      return 0;
    } else {
      std::ofstream File(Path, std::ios::trunc);
      if (!File || !(File << Printed)) {
        std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
        return 2;
      }
    }
    std::fprintf(stderr, "fixed: %s (%zu -> %zu nodes, %u round%s)\n",
                 Path.c_str(), Stats.NodesBefore, Stats.NodesAfter,
                 Stats.Rounds, Stats.Rounds == 1 ? "" : "s");
    return 0;
  }
  return Entries.empty() ? 0 : 1;
}

/// `mcnk fuzz`: the CLI face of the src/gen differential oracle. The
/// global --cache option shares one compile cache across every case and
/// reports its statistics.
int runFuzz(const std::vector<std::string> &Args, bool UseCache) {
  uint64_t Seed = 0xC1A0ULL;
  unsigned Iters = 25;
  bool Scenarios = true;
  for (std::size_t I = 1; I < Args.size(); ++I) {
    // A silently-misparsed flag would turn the oracle into a green
    // no-op, so values are validated strictly: decimal or 0x hex, no
    // sign (strtoull would wrap "-1" to ULLONG_MAX), no overflow.
    auto TakeValue = [&](unsigned long long &Out) {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: %s needs a value\n", Args[I].c_str());
        return false;
      }
      const std::string &Text = Args[++I];
      char *End = nullptr;
      errno = 0;
      Out = std::strtoull(Text.c_str(), &End, 0);
      bool StartsWithDigit = !Text.empty() && Text[0] >= '0' &&
                             Text[0] <= '9';
      if (!StartsWithDigit || errno == ERANGE ||
          End != Text.c_str() + Text.size()) {
        std::fprintf(stderr, "error: malformed number '%s' for %s\n",
                     Text.c_str(), Args[I - 1].c_str());
        return false;
      }
      return true;
    };
    unsigned long long Value = 0;
    if (Args[I] == "--seed") {
      if (!TakeValue(Value))
        return usage();
      Seed = Value;
    } else if (Args[I] == "--iters") {
      if (!TakeValue(Value))
        return usage();
      if (Value > 0xffffffffULL) {
        // A silent 32-bit truncation could zero the iteration count and
        // fake a green run.
        std::fprintf(stderr, "error: --iters %llu is out of range\n",
                     Value);
        return usage();
      }
      Iters = static_cast<unsigned>(Value);
    } else if (Args[I] == "--no-scenarios") {
      Scenarios = false;
    } else {
      std::fprintf(stderr, "error: unknown fuzz option '%s'\n",
                   Args[I].c_str());
      return usage();
    }
  }

  std::printf("fuzz: seed 0x%llx, %u random programs%s\n",
              static_cast<unsigned long long>(Seed), Iters,
              Scenarios ? " + scenario registry" : "");
  // The banner above is the reproduction recipe; push it past stdio
  // buffering *now* so an engine abort later in the run cannot lose it.
  std::fflush(stdout);
  gen::FuzzOptions Fuzz;
  Fuzz.Iterations = Iters;
  gen::OracleOptions Oracle;
  fdd::CompileCache SharedCache;
  if (UseCache)
    Oracle.Cache = &SharedCache;
  gen::OracleReport Report = gen::fuzzPrograms(Seed, Fuzz, Oracle);
  if (Scenarios)
    Report.merge(gen::runRegistry(gen::RegistryOptions(), Oracle));

  for (const std::string &D : Report.Disagreements)
    std::fprintf(stderr, "DISAGREEMENT: %s\n", D.c_str());
  std::printf("fuzz: %s\n", Report.summary().c_str());
  if (UseCache)
    printCacheStats(SharedCache);
  if (!Report.ok()) {
    // Repeat the seed on *both* streams next to the verdict: stderr so it
    // sits beside the DISAGREEMENT lines in logs that split the streams,
    // stdout for pipelines that only capture one.
    std::printf("fuzz: FAILED — reproduce with --seed 0x%llx\n",
                static_cast<unsigned long long>(Seed));
    std::fflush(stdout);
    std::fprintf(stderr, "fuzz: FAILED — reproduce with --seed 0x%llx\n",
                 static_cast<unsigned long long>(Seed));
    return 3; // Distinct from usage/setup errors (2) and generic (1).
  }
  std::printf("fuzz: all engines agree\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Strip the global options wherever they appear.
  bool UseCache = false;
  bool Simplify = false;
  bool Slice = false;
  std::vector<std::string> Args;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--cache") {
      UseCache = true;
      continue;
    }
    if (Arg == "--simplify") {
      Simplify = true;
      continue;
    }
    if (Arg == "--slice") {
      Slice = true;
      continue;
    }
    if (Arg.size() > 1 && Arg[0] == '-' && Arg[1] != '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
    Args.push_back(std::move(Arg));
  }
  if (Args.empty())
    return usage();
  std::string Command = Args[0];
  if (Command == "fuzz")
    return runFuzz(Args, UseCache);
  if (Command == "lint")
    return runLint(Args);
  for (const std::string &Arg : Args)
    if (Arg.size() > 1 && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
  if (Args.size() < 2)
    return usage();
  ast::Context Ctx;

  const ast::Node *Program = parseFile(Args[1], Ctx);
  if (!Program)
    return 1;

  if (Command == "check") {
    std::printf("parse: ok (%zu nodes, depth %zu)\n",
                ast::countNodes(Program), ast::depth(Program));
    std::printf("guarded fragment: %s\n",
                ast::isGuarded(Program) ? "yes" : "no");
    return 0;
  }

  if (!ast::isGuarded(Program)) {
    std::fprintf(stderr,
                 "error: program is outside the guarded fragment "
                 "(star or program-level union)\n");
    return 1;
  }

  // --simplify and then --slice rewrite a program just before the
  // verifier compiles it; Obs is what the command's answer observes.
  ast::SliceStats SliceStats;
  auto Prepare = [&](const ast::Node *P, const ast::ObservationSet &Obs) {
    if (Simplify)
      P = ast::simplify(Ctx, P);
    if (!Slice)
      return P;
    ast::SliceResult R = ast::slice(Ctx, P, Obs);
    SliceStats = R.Stats;
    return R.Program;
  };

  if (Command == "dump") {
    analysis::Verifier V;
    if (UseCache)
      V.enableCompileCache();
    // `dump` has no query attached, so slice for the most aggressive
    // still-meaningful observation: delivery (drop mass only).
    fdd::FddRef Ref =
        V.compile(Prepare(Program, ast::ObservationSet::delivery()));
    std::printf("%s", fdd::dumpFdd(V.manager(), Ref, Ctx.fields()).c_str());
    std::printf("// %zu nodes in the diagram\n",
                V.manager().diagramSize(Ref));
    if (Slice)
      std::printf("slice: %zu assignment(s) removed, %zu -> %zu AST "
                  "nodes, %zu/%zu fields relevant\n",
                  SliceStats.AssignmentsRemoved, SliceStats.NodesBefore,
                  SliceStats.NodesAfter, SliceStats.FieldsRelevant,
                  SliceStats.FieldsBefore);
    if (UseCache)
      printCacheStats(*V.compileCache());
    return 0;
  }

  if (Command == "equiv") {
    if (Args.size() < 3)
      return usage();
    const ast::Node *Other = parseFile(Args[2], Ctx);
    if (!Other || !ast::isGuarded(Other))
      return 1;
    // One verifier — and thus one compile cache — serves both compiles,
    // so shared sub-programs of the two inputs are compiled once.
    analysis::Verifier V;
    if (UseCache)
      V.enableCompileCache();
    // Equivalence observes whole output packets; slicing for the
    // all-fields observation is a verified no-op rewrite.
    bool Equal =
        V.equivalent(V.compile(Prepare(Program, ast::ObservationSet::all())),
                     V.compile(Prepare(Other, ast::ObservationSet::all())));
    std::printf("%s\n", Equal ? "equivalent" : "NOT equivalent");
    if (UseCache)
      printCacheStats(*V.compileCache());
    return Equal ? 0 : 1;
  }

  if (Command == "run" || Command == "prism") {
    if (Args.size() < 3)
      return usage();
    Packet In;
    if (!parseInputPacket(Args[2], Ctx, In)) {
      std::fprintf(stderr, "error: malformed input packet spec\n");
      return 1;
    }
    if (Command == "prism") {
      prism::Translation T = prism::translate(Ctx, Program, In);
      std::printf("%s", T.Source.c_str());
      std::printf("// delivered: %s, dropped: %s\n", T.DoneGuard.c_str(),
                  T.DropGuard.c_str());
      return 0;
    }
    analysis::Verifier V;
    if (UseCache)
      V.enableCompileCache();
    // `run` prints whole output packets; all fields are observed.
    fdd::FddRef Ref = V.compile(Prepare(Program, ast::ObservationSet::all()));
    auto Out = V.manager().outputDistribution(Ref, In);
    for (const auto &[Pkt, W] : Out.Outputs) {
      std::printf("{");
      for (std::size_t F = 0; F < Pkt.numFields(); ++F)
        std::printf("%s%s=%u", F ? ", " : "",
                    Ctx.fields().name(static_cast<FieldId>(F)).c_str(),
                    Pkt.get(static_cast<FieldId>(F)));
      std::printf("} @ %s\n", W.toString().c_str());
    }
    if (!Out.Dropped.isZero())
      std::printf("drop @ %s\n", Out.Dropped.toString().c_str());
    if (UseCache)
      printCacheStats(*V.compileCache());
    return 0;
  }
  return usage();
}
