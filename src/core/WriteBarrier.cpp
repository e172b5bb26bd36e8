//===- WriteBarrier.cpp - mprotect/SIGSEGV write barrier -------------------===//

#include "core/WriteBarrier.h"

#include "support/Log.h"
#include "support/SpinLock.h"

#include <cassert>
#include <csignal>
#include <cstring>
#include <new>
#include <sched.h>

namespace mesh {

namespace {

struct sigaction PreviousAction;

void forwardToPrevious(int Sig, siginfo_t *Info, void *Ctx) {
  if (PreviousAction.sa_flags & SA_SIGINFO) {
    if (PreviousAction.sa_sigaction != nullptr) {
      PreviousAction.sa_sigaction(Sig, Info, Ctx);
      return;
    }
  } else if (PreviousAction.sa_handler != SIG_IGN &&
             PreviousAction.sa_handler != SIG_DFL &&
             PreviousAction.sa_handler != nullptr) {
    PreviousAction.sa_handler(Sig);
    return;
  }
  // Restore default disposition and re-raise so the process dies with
  // the usual SIGSEGV semantics (core dump, correct si_addr).
  signal(SIGSEGV, SIG_DFL);
  raise(SIGSEGV);
}

void segvHandler(int Sig, siginfo_t *Info, void *Ctx) {
  if (Info != nullptr &&
      WriteBarrier::instance().handleFault(Info->si_addr))
    return; // Retry the faulting instruction.
  forwardToPrevious(Sig, Info, Ctx);
}

} // namespace

WriteBarrier &WriteBarrier::instance() {
  alignas(WriteBarrier) static char Storage[sizeof(WriteBarrier)];
  static WriteBarrier *Singleton = new (Storage) WriteBarrier();
  return *Singleton;
}

void WriteBarrier::ensureHandlerInstalled() {
  bool Expected = false;
  if (!HandlerInstalled.compare_exchange_strong(Expected, true))
    return;
  struct sigaction Action;
  memset(&Action, 0, sizeof(Action));
  Action.sa_sigaction = segvHandler;
  Action.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&Action.sa_mask);
  if (sigaction(SIGSEGV, &Action, &PreviousAction) != 0)
    fatalError("failed to install write-barrier SIGSEGV handler");
}

void WriteBarrier::registerArena(const void *Base, size_t Bytes) {
  const auto B = reinterpret_cast<uintptr_t>(Base);
  for (int I = 0; I < kMaxArenas; ++I) {
    uintptr_t Expected = 0;
    if (ArenaBegin[I].compare_exchange_strong(Expected, B)) {
      ArenaEnd[I].store(B + Bytes, std::memory_order_release);
      return;
    }
  }
  fatalError("too many arenas registered with the write barrier");
}

void WriteBarrier::unregisterArena(const void *Base) {
  const auto B = reinterpret_cast<uintptr_t>(Base);
  for (int I = 0; I < kMaxArenas; ++I) {
    if (ArenaBegin[I].load(std::memory_order_acquire) == B) {
      ArenaEnd[I].store(0, std::memory_order_release);
      ArenaBegin[I].store(0, std::memory_order_release);
      return;
    }
  }
}

bool WriteBarrier::inRegisteredArena(uintptr_t Addr) const {
  for (int I = 0; I < kMaxArenas; ++I) {
    const uintptr_t Begin = ArenaBegin[I].load(std::memory_order_acquire);
    if (Begin == 0)
      continue;
    if (Addr >= Begin && Addr < ArenaEnd[I].load(std::memory_order_acquire))
      return true;
  }
  return false;
}

void WriteBarrier::beginEpoch() {
  const uint64_t Old = Epoch.fetch_add(1, std::memory_order_acq_rel);
  assert((Old & 1) == 0 && "nested mesh epochs are not allowed");
  (void)Old;
}

void WriteBarrier::endEpoch() {
  const uint64_t Old = Epoch.fetch_add(1, std::memory_order_acq_rel);
  assert((Old & 1) == 1 && "endEpoch without beginEpoch");
  (void)Old;
}

bool WriteBarrier::handleFault(const void *AddrPtr) {
  const auto Addr = reinterpret_cast<uintptr_t>(AddrPtr);
  if (!inRegisteredArena(Addr))
    return false;

  // A fault inside an arena is barrier traffic if a mesh epoch is (or
  // was just) active. There is an unavoidable race where the faulting
  // write landed while a span was protected but the epoch ended before
  // this handler ran; in that case the mapping is already writable
  // again and retrying succeeds. Bound the retries so a genuine crash
  // inside the arena (e.g. a write to a PROT_READ page unrelated to
  // meshing) cannot loop forever.
  static thread_local uintptr_t LastFaultAddr = 0;
  static thread_local unsigned FaultRetries = 0;
  if (Addr == LastFaultAddr) {
    if (++FaultRetries > 128)
      return false;
  } else {
    LastFaultAddr = Addr;
    FaultRetries = 0;
  }

  // Wait out the current epoch (if any): by the time it ends, every
  // victim span has been remapped read-write onto the keeper.
  const uint64_t Seen = Epoch.load(std::memory_order_acquire);
  if ((Seen & 1) != 0)
    while (Epoch.load(std::memory_order_acquire) == Seen)
      sched_yield();
  return true;
}

} // namespace mesh
