// pc_profile.cpp — a SIGPROF program-counter sampler, loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/tools/pc_profile/libpc_profile.so ./build/examples/firefly_cli ...
//   python3 tools/pc_profile/report.py pc_profile.<pid>.txt
//
// At load it arms ITIMER_PROF, which sends SIGPROF per interval of CPU time
// the process (all its threads) consumes; the handler stores the
// interrupted PC in a static array.  At exit it writes
// `pc_profile.<pid>.txt` in the working directory: the executable's path,
// the executable mappings, the run-time addresses of libm's IFUNC targets
// (their code has no name in libm's symbol table) and one line per distinct
// PC with its sample count.  `report.py` turns that into names.  See
// README.md for the sampling-rate cap.
#include <dlfcn.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

// 2^21 samples is over two hours of CPU time at the kernel's tick rate; the
// array is zero-initialised static storage, so only the pages the samples
// fill become resident.
constexpr unsigned long kMaxSamples = 1UL << 21;
std::uintptr_t g_samples[kMaxSamples];
unsigned long g_taken = 0;  // samples offered; only the first kMaxSamples are kept

// Requested interval.  The kernel delivers ITIMER_PROF on its scheduler
// tick, so the real rate is capped at CONFIG_HZ samples per CPU-second.
constexpr long kIntervalUs = 1000;

// IFUNC entry points whose selected implementation has no name in the
// library's dynamic symbol table.  libm's exported `log` jumps through an
// IRELATIVE slot to the code `__log_finite` selects, and `log10` calls it
// too; libc's string functions resolve to per-CPU variants the same way.
// Looking an IFUNC up runs its resolver and returns the selected code.
struct IfuncTarget {
  const char* symbol;
  const char* version;  // null: the default version
  const char* label;
};
constexpr IfuncTarget kIfuncTargets[] = {
    {"__log_finite", "GLIBC_2.15", "libm internal log"},
    {"__exp_finite", "GLIBC_2.15", "libm internal exp"},
    {"__pow_finite", "GLIBC_2.15", "libm internal pow"},
    {"memcpy", nullptr, "libc memcpy variant"},
    {"memset", nullptr, "libc memset variant"},
};

std::uintptr_t interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pc_profile: unsupported architecture (x86_64 and aarch64 only)"
#endif
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const unsigned long i = __atomic_fetch_add(&g_taken, 1UL, __ATOMIC_RELAXED);
  if (i < kMaxSamples) g_samples[i] = interrupted_pc(context);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double g_cpu_at_start = 0.0;

__attribute__((constructor)) void start_sampling() {
  struct sigaction action{};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  g_cpu_at_start = cpu_seconds();
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void write_profile() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const double cpu_s = cpu_seconds() - g_cpu_at_start;
  const unsigned long taken = __atomic_load_n(&g_taken, __ATOMIC_RELAXED);
  const unsigned long kept = std::min(taken, kMaxSamples);

  char path[64];
  std::snprintf(path, sizeof path, "pc_profile.%ld.txt", static_cast<long>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  std::fprintf(out, "# pc_profile 1\n");
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  std::fprintf(out, "exe %s\n", exe);
  std::fprintf(out, "cpu_s %.6f\n", cpu_s);
  std::fprintf(out, "samples %lu\n", kept);
  std::fprintf(out, "dropped %lu\n", taken - kept);

  // Executable mappings: start-end perms offset dev inode path.
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096 + 128];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      unsigned long start = 0, end = 0, offset = 0;
      char perms[8] = {};
      int name_at = 0;
      if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms, &offset,
                      &name_at) < 4 ||
          perms[2] != 'x') {
        continue;
      }
      char* name = line + name_at;
      name[std::strcspn(name, "\n")] = '\0';
      std::fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, name);
    }
    std::fclose(maps);
  }
  for (const IfuncTarget& t : kIfuncTargets) {
    void* addr = t.version != nullptr ? dlvsym(RTLD_DEFAULT, t.symbol, t.version)
                                      : dlsym(RTLD_DEFAULT, t.symbol);
    if (addr != nullptr) {
      std::fprintf(out, "sym %lx %s\n", reinterpret_cast<unsigned long>(addr), t.label);
    }
  }

  std::sort(g_samples, g_samples + kept);
  for (unsigned long i = 0; i < kept;) {
    unsigned long j = i;
    while (j < kept && g_samples[j] == g_samples[i]) ++j;
    std::fprintf(out, "pc %lx %lu\n", static_cast<unsigned long>(g_samples[i]), j - i);
    i = j;
  }
  std::fclose(out);
  std::fprintf(stderr, "pc_profile: %lu samples in %.2f CPU s written to %s\n", kept, cpu_s,
               path);
}

}  // namespace
