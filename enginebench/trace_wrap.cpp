// trace_wrap.cpp — link-time layer tracing for engine_bench_traced.
//
// engine_bench_traced is linked with -Wl,--wrap=<symbol> for every symbol in
// wrapped_symbols.txt.  The linker then resolves each call to <symbol> that
// crosses object files to __wrap_<symbol>, defined here, which records a
// span around a call to __real_<symbol>, the original definition.  src/ is
// not changed and the untraced driver runs the very same library code.
//
// A member function is wrapped by a free function taking `this` as its
// first parameter, which the Itanium C++ ABI passes identically (a hidden
// return-slot pointer, if any, precedes it in both cases).
//
// Spans (name, parent, start, end, one-byte result) are kept in memory and
// written at exit to the file named by $ENGINEBENCH_SPANS, one per line in
// the order they were opened; run.py derives self times from them.  The
// driver and the engines it runs are single-threaded; a span opened on a
// second thread aborts the run rather than producing a wrong tree.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cnf/unroller.hpp"
#include "itp/interpolate.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/sim.hpp"
#include "mc/state_space.hpp"
#include "sat/solver.hpp"

using namespace itpseq;

namespace {

enum SpanName : std::uint8_t {
  kRun,
  kImplies,
  kSolve,
  kAssume,
  kTransition,
  kStatePred,
  kExtractor,
  kExtract,
  kExtractSeq,
  kCertify,
  kReplay,
  kNumNames
};

const char* const kNames[kNumNames] = {
    "mc.run",           "fixpoint.implies",      "sat.solve",
    "sat.assume",       "cnf.add_transition",    "cnf.encode_state_pred",
    "itp.extractor",    "itp.extract",           "itp.extract_sequence",
    "certify.check",    "certify.replay",
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint8_t name = 0;
  std::uint8_t arg = 0;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Recorder {
 public:
  Recorder() { spans_.reserve(1u << 16); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder() { write(); }

  std::int32_t open(SpanName name) {
    if (spans_.empty()) owner_ = std::this_thread::get_id();
    if (std::this_thread::get_id() != owner_) {
      std::fprintf(stderr, "trace_wrap: span %s opened on a second thread\n",
                   kNames[name]);
      std::abort();
    }
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    const auto id = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(id);
    s.start_ns = now_ns();
    spans_.push_back(s);
    return id;
  }

  void close(std::int32_t id, std::uint8_t arg) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(id)].arg = arg;
    stack_.pop_back();
  }

 private:
  void write() const {
    const char* path = std::getenv("ENGINEBENCH_SPANS");
    if (path == nullptr) return;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::perror(path);
      return;
    }
    std::fprintf(f, "names");
    for (const char* n : kNames) std::fprintf(f, " %s", n);
    std::fprintf(f, "\n");
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      std::fprintf(f, "%u %d %lld %lld %u\n", s.name, s.parent,
                   static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base), s.arg);
    }
    if (std::fclose(f) != 0) std::perror(path);
  }

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::thread::id owner_;
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

// One span for the lifetime of a wrapper call; closed on return and on
// exceptions alike.
class Scope {
 public:
  explicit Scope(SpanName name) : id_(recorder().open(name)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { recorder().close(id_, arg_); }
  void set_arg(std::uint8_t a) { arg_ = a; }

 private:
  std::int32_t id_;
  std::uint8_t arg_ = 0;
};

}  // namespace

// Declares __real_<sym> as `real` and __wrap_<sym> as `wrap`, both with the
// given return type and parameter list.
#define ENGINEBENCH_WRAP(ret, sym, real, wrap, ...)   \
  ret real(__VA_ARGS__) asm("__real_" #sym);          \
  ret wrap(__VA_ARGS__) asm("__wrap_" #sym);

ENGINEBENCH_WRAP(mc::EngineResult, _ZN6itpseq2mc6Engine3runEv, real_run,
                 wrap_run, mc::Engine*)
ENGINEBENCH_WRAP(mc::Implication, _ZN6itpseq2mc10StateSpace7impliesEjjdPKSt6atomicIbE,
                 real_implies, wrap_implies, mc::StateSpace*, aig::Lit, aig::Lit,
                 double, const std::atomic<bool>*)
ENGINEBENCH_WRAP(sat::Status, _ZN6itpseq3sat6Solver5solveERKNS0_6BudgetE,
                 real_solve, wrap_solve, sat::Solver*, const sat::Budget&)
ENGINEBENCH_WRAP(sat::Status,
                 _ZN6itpseq3sat6Solver14solve_assumingERKSt6vectorIjSaIjEERKNS0_6BudgetE,
                 real_assume, wrap_assume, sat::Solver*,
                 const std::vector<sat::Lit>&, const sat::Budget&)
ENGINEBENCH_WRAP(void, _ZN6itpseq3cnf8Unroller14add_transitionEjj,
                 real_transition, wrap_transition, cnf::Unroller*, unsigned,
                 std::uint32_t)
ENGINEBENCH_WRAP(sat::Lit, _ZN6itpseq3cnf8Unroller17encode_state_predERKNS_3aig3AigEjjj,
                 real_state_pred, wrap_state_pred, cnf::Unroller*,
                 const aig::Aig&, aig::Lit, unsigned, std::uint32_t)
ENGINEBENCH_WRAP(void, _ZN6itpseq3itp20InterpolantExtractorC1ERKNS_3sat5ProofE,
                 real_extractor, wrap_extractor, itp::InterpolantExtractor*,
                 const sat::Proof&)
ENGINEBENCH_WRAP(aig::Lit,
                 _ZNK6itpseq3itp20InterpolantExtractor7extractERNS_3aig3AigEjRKSt8functionIFjjEENS0_6SystemE,
                 real_extract, wrap_extract, const itp::InterpolantExtractor*,
                 aig::Aig&, std::uint32_t, const itp::LeafFn&, itp::System)
ENGINEBENCH_WRAP(std::vector<aig::Lit>,
                 _ZNK6itpseq3itp20InterpolantExtractor16extract_sequenceERNS_3aig3AigEjjRKSt8functionIFjjjEENS0_6SystemE,
                 real_extract_seq, wrap_extract_seq,
                 const itp::InterpolantExtractor*, aig::Aig&, std::uint32_t,
                 std::uint32_t, const itp::CutLeafFn&, itp::System)
ENGINEBENCH_WRAP(mc::CertifyResult,
                 _ZN6itpseq2mc17check_certificateERKNS_3aig3AigEmRKNS0_11CertificateE,
                 real_certify, wrap_certify, const aig::Aig&, std::size_t,
                 const mc::Certificate&)
ENGINEBENCH_WRAP(mc::SimFrames, _ZNK6itpseq2mc9Simulator3runERKNS0_5TraceE,
                 real_replay, wrap_replay, const mc::Simulator*, const mc::Trace&)

mc::EngineResult wrap_run(mc::Engine* self) {
  Scope s(kRun);
  return real_run(self);
}

mc::Implication wrap_implies(mc::StateSpace* self, aig::Lit a, aig::Lit b,
                             double limit, const std::atomic<bool>* cancel) {
  Scope s(kImplies);
  mc::Implication r = real_implies(self, a, b, limit, cancel);
  s.set_arg(r == mc::Implication::kHolds ? 1 : 0);
  return r;
}

sat::Status wrap_solve(sat::Solver* self, const sat::Budget& budget) {
  Scope s(kSolve);
  return real_solve(self, budget);
}

sat::Status wrap_assume(sat::Solver* self, const std::vector<sat::Lit>& assumptions,
                        const sat::Budget& budget) {
  Scope s(kAssume);
  return real_assume(self, assumptions, budget);
}

void wrap_transition(cnf::Unroller* self, unsigned t, std::uint32_t label) {
  Scope s(kTransition);
  real_transition(self, t, label);
}

sat::Lit wrap_state_pred(cnf::Unroller* self, const aig::Aig& sets,
                         aig::Lit root, unsigned t, std::uint32_t label) {
  Scope s(kStatePred);
  return real_state_pred(self, sets, root, t, label);
}

void wrap_extractor(itp::InterpolantExtractor* self, const sat::Proof& proof) {
  Scope s(kExtractor);
  real_extractor(self, proof);
}

aig::Lit wrap_extract(const itp::InterpolantExtractor* self, aig::Aig& out,
                      std::uint32_t cut, const itp::LeafFn& leaf,
                      itp::System sys) {
  Scope s(kExtract);
  return real_extract(self, out, cut, leaf, sys);
}

std::vector<aig::Lit> wrap_extract_seq(const itp::InterpolantExtractor* self,
                                       aig::Aig& out, std::uint32_t first,
                                       std::uint32_t last,
                                       const itp::CutLeafFn& leaf,
                                       itp::System sys) {
  Scope s(kExtractSeq);
  return real_extract_seq(self, out, first, last, leaf, sys);
}

mc::CertifyResult wrap_certify(const aig::Aig& model, std::size_t prop,
                               const mc::Certificate& cert) {
  Scope s(kCertify);
  return real_certify(model, prop, cert);
}

mc::SimFrames wrap_replay(const mc::Simulator* self, const mc::Trace& trace) {
  Scope s(kReplay);
  return real_replay(self, trace);
}
