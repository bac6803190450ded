// spawn_job: runs one command as a child process and prints its exit code,
// wall time and resource usage as one JSON line.
//
//   spawn_job <stdout-file> <stderr-file> <program> [args...]
//
// perfbench/run.py launches every timed `tpm mine` job through this small
// process rather than directly: on Linux a child's ru_maxrss starts from the
// resident size of the process it was forked from, so a job forked straight
// from the Python interpreter would report the interpreter's peak whenever
// that is the larger one.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>

extern char** environ;

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: spawn_job <stdout> <stderr> <program> [args...]\n");
    return 2;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, argv[1],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, argv[2],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);

  const auto start = std::chrono::steady_clock::now();
  pid_t pid = 0;
  const int err = posix_spawn(&pid, argv[3], &actions, nullptr, argv + 3, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (err != 0) {
    std::fprintf(stderr, "spawn_job: cannot run %s (errno %d)\n", argv[3], err);
    return 2;
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("spawn_job: wait4");
    return 2;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf(
      "{\"exit\": %d, \"wall_s\": %.9f, \"user_s\": %.6f, \"sys_s\": %.6f, "
      "\"maxrss_kb\": %ld}\n",
      code, wall, Seconds(usage.ru_utime), Seconds(usage.ru_stime), usage.ru_maxrss);
  return 0;
}
