// Compiled by tools/check_thread_safety.sh (and nothing else) under
// clang -Wthread-safety with the diagnostics promoted to errors: canonical
// *correct* usage of every annotated primitive in util/thread_annotations.hpp.
// It must stay warning-free — it is the positive control next to
// thread_safety_violation.cpp, and it instantiates the annotated header-only
// template ThreadPool::submit so its body is analyzed too.
//
// Not part of any CMake target: the default (GCC) build never sees it.
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace {

struct Guarded {
  agile::util::Mutex mu;
  agile::util::CondVar cv;
  int value AGILE_GUARDED_BY(mu) = 0;

  void set(int v) AGILE_EXCLUDES(mu) {
    agile::util::MutexLock lock(mu);
    value = v;
    cv.notify_one();
  }

  int wait_nonzero() AGILE_EXCLUDES(mu) {
    agile::util::MutexLock lock(mu);
    while (value == 0) cv.wait(mu);
    return value;
  }

  int read_locked() const AGILE_REQUIRES(mu) { return value; }

  void manual_pair() AGILE_EXCLUDES(mu) {
    mu.lock();
    value += 1;
    mu.unlock();
  }
};

int fixture_guarded() {
  Guarded g;
  g.set(1);
  g.manual_pair();
  int got = g.wait_nonzero();
  {
    agile::util::MutexLock lock(g.mu);
    got += g.read_locked();
  }
  return got;
}

int fixture_pool() {
  agile::util::ThreadPool pool(1);
  return pool.submit([] { return 7; }).get();
}

}  // namespace

int thread_safety_clean_fixture() {
  return fixture_guarded() + fixture_pool();
}
