//===----------------------------------------------------------------------===//
///
/// \file
/// mcnk_serve: the long-lived verification daemon (ARCHITECTURE S16).
///
///   mcnk_serve --stdio [options]           serve one session over
///                                          stdin/stdout
///   mcnk_serve --port N [options]          serve line-JSON over TCP on
///                                          127.0.0.1:N (0 = ephemeral;
///                                          the bound port is printed)
///
/// Options:
///   --store PATH        persistent FDD store: compiled diagrams, lint
///                       findings and sliced results are loaded at
///                       startup and appended on every miss, so a
///                       restarted daemon answers warm
///   --cache-capacity N  compile-cache entries (default 4096)
///
/// Each session runs on its own thread, and a request's loop solves run
/// serially on it.
///
/// The protocol is one JSON request per line, one JSON response per line
/// (see src/serve/Server.h for the schema). Exact probabilities travel as
/// rational strings.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

using namespace mcnk;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mcnk_serve --stdio [--store PATH] [--cache-capacity N]\n"
      "       mcnk_serve --port N [--store PATH] [--cache-capacity N]\n"
      "  --stdio            serve one session over stdin/stdout\n"
      "  --port N           serve TCP on 127.0.0.1:N (0 picks a free "
      "port)\n"
      "  --store PATH       persistent on-disk FDD store\n"
      "  --cache-capacity N compile-cache capacity in entries\n");
  return 2;
}

bool parseUnsigned(const char *Text, unsigned long &Out,
                   unsigned long Max) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtoul(Text, &End, 10);
  return *Text != '\0' && *End == '\0' && errno == 0 && Out <= Max;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Stdio = false;
  bool Tcp = false;
  unsigned long Port = 0;
  serve::Service::Options Opts;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--stdio") {
      Stdio = true;
    } else if (Arg == "--port") {
      if (I + 1 >= Argc || !parseUnsigned(Argv[++I], Port, 65535)) {
        std::fprintf(stderr, "error: --port needs a number in [0, 65535]\n");
        return usage();
      }
      Tcp = true;
    } else if (Arg == "--store") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --store needs a path\n");
        return usage();
      }
      Opts.StorePath = Argv[++I];
    } else if (Arg == "--cache-capacity") {
      unsigned long Cap = 0;
      if (I + 1 >= Argc || !parseUnsigned(Argv[++I], Cap, 1ul << 24) ||
          Cap == 0) {
        std::fprintf(stderr, "error: bad --cache-capacity\n");
        return usage();
      }
      Opts.CacheCapacity = Cap;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
  }
  if (Stdio == Tcp) // Exactly one front end.
    return usage();

  std::string Error;
  std::unique_ptr<serve::Service> Svc = serve::Service::create(Opts, &Error);
  if (!Svc) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (!Opts.StorePath.empty())
    std::fprintf(stderr, "store: %s (%zu entr%s warmed) (%zu memo entr%s)\n",
                 Opts.StorePath.c_str(), Svc->warmedEntries(),
                 Svc->warmedEntries() == 1 ? "y" : "ies",
                 Svc->warmedMemoEntries(),
                 Svc->warmedMemoEntries() == 1 ? "y" : "ies");

  if (Stdio) {
    std::size_t Served = serve::runStdio(*Svc, std::cin, std::cout);
    std::fprintf(stderr, "served %zu request%s\n", Served,
                 Served == 1 ? "" : "s");
    return 0;
  }

  // TCP until shutdown: a client's shutdown verb closes its connection;
  // SIGINT/SIGTERM end the daemon (the default handlers are fine — the
  // store is append-only and torn tails are recovered at next open).
  serve::TcpServer Server(*Svc);
  if (!Server.start(static_cast<uint16_t>(Port), &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // The one line a launcher needs to connect; stdout, flushed immediately.
  std::printf("listening on 127.0.0.1:%u\n", Server.port());
  std::fflush(stdout);
  // Park the main thread: wait for a signal. pause() returns on any
  // handled signal; default SIGINT/SIGTERM dispositions terminate the
  // process before pause() even returns, which is exactly the lifecycle
  // a daemon under a supervisor wants.
  for (;;)
    ::pause();
}
